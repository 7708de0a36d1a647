// Command perfbench is the repository's benchmark. It runs one workload
// through the public APIs of internal/core and internal/fleet, checks the
// run against the ticked oracle and for stationarity, and prints every
// metric by name and unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (measured with
// tracing and invariants off); with -trace 1 they are the per-layer ones,
// from a separate traced run. The benchmark's own spans (build, warm-up,
// every Run chunk or fleet epoch, every layer drive) are written to
// .bench_build/spans when the run ends. BENCHMARK.json at the repository
// root lists the workloads and metrics; perfbench/notes.json records why
// each load was chosen.
//
// Run it from the repository root with
//
//	bash perfbench/run.sh -workload nic-loaded -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: nic-loaded, nic-idle-ff or rack-kvs")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	sweep := flag.String("sweep", "", "comma-separated loads: print the stationarity and drops of one repetition at each instead of measuring")
	flag.Parse()

	sp, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	if *sweep != "" {
		if err := runSweep(sp, *seed, *sweep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	rec := newRecorder()
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traced == 1 {
		res = tracedRun(sp, *seed, budget, rec)
	} else {
		res = timedRun(sp, *seed, budget, 3, rec)
	}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-seed%d-trace%d.json", sp.name, *seed, *traced))
	if err := rec.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report prints the notes, one line per metric with its unit, and the
// final JSON line.
func report(w *os.File, res result) error {
	for _, n := range res.notes {
		fmt.Fprintln(w, "#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// runSweep prints, for each load, whether one repetition is stationary
// and how many messages it dropped: the table each workload's load was
// chosen from.
func runSweep(sp spec, seed uint64, loads string) error {
	rec := newRecorder()
	for _, f := range strings.Split(loads, ",") {
		l, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return fmt.Errorf("sweep load %q: %w", f, err)
		}
		s := sp
		s.load = l
		r, g := runRep(s, seed, modeTimed, 0, "chunk", rec)
		g.close()
		fmt.Printf("%s load=%.4f stationary=%v backlog=%.1f->%.1f heap=%d->%d offered=%d delivered=%d dropped=%d rtt_p50_cycles=%d rtt_p99_cycles=%d %s\n",
			sp.name, l, r.unsteady == "", r.backlogA, r.backlogB, r.heapMid, r.heapEnd,
			r.win.offered, r.win.delivered, r.win.dropped, quantile(r.lat, 0.50), quantile(r.lat, 0.99), r.unsteady)
	}
	return nil
}
