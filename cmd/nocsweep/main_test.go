package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when re-executed by runMain, so the tests can
// check exit codes and output of real invocations.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("NOCSWEEP_ARGS"); ok {
		os.Args = append([]string{"nocsweep"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs nocsweep with the given arguments and returns its exit
// code, stdout and stderr.
func runMain(t *testing.T, args string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "NOCSWEEP_ARGS="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stdout.String(), stderr.String()
}

func TestRejectsSizesBelowOne(t *testing.T) {
	for _, args := range []string{"-mesh 0", "-mesh 4,-2", "-width 0", "-mesh 2 -width 64,-8"} {
		code, _, stderr := runMain(t, args)
		if code != 2 || !strings.Contains(stderr, "is below 1") || !strings.Contains(stderr, "Usage") {
			t.Errorf("nocsweep %s: exit %d, stderr %q; want a usage error and exit 2", args, code, stderr)
		}
	}
}

func TestSingleNodeMeshMeasuresZero(t *testing.T) {
	code, stdout, stderr := runMain(t, "-mesh 1 -width 64 -warmup 100 -window 1000")
	if code != 0 {
		t.Fatalf("nocsweep -mesh 1: exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "1x1") {
		t.Fatalf("no 1x1 row in output:\n%s", stdout)
	}
}
