#!/usr/bin/env bash
# Builds perfbench from source inside the checkout it is run from and runs
# it; every argument is passed through. Run from the repository root:
#
#   bash perfbench/run.sh --workload nic-loaded --seed 1 --seconds 10 --trace 0
#
# The build cache, module cache and binary live under .bench_build, and
# module downloads are disabled: the benchmark needs nothing beyond the
# repository and the Go toolchain.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
