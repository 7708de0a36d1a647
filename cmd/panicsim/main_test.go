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
	if args, ok := os.LookupEnv("PANICSIM_ARGS"); ok {
		os.Args = append([]string{"panicsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs panicsim with the given arguments and returns its exit
// code and stderr.
func runMain(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "PANICSIM_ARGS="+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

func TestRejectsBadGeometry(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-tenants 0", "-tenants must be >= 1 (got 0)"},
		{"-mesh 0", "-mesh must be >= 4 (got 0)"},
		{"-mesh 3", "-mesh must be >= 4 (got 3)"},
		{"-width 0", "-width must be >= 1 (got 0)"},
		{"-pipelines 0", "-pipelines must be >= 1 (got 0)"},
		{"-mesh 6 -pipelines 4", "-pipelines must be <= 3 on a 6x6 mesh (got 4)"},
		{"-mesh 8 -pipelines 5", "-pipelines must be <= 4 on a 8x8 mesh (got 5)"},
		{"-arch manycore -cores 0", "-cores must be >= 1 (got 0)"},
	} {
		code, stderr := runMain(t, "-cycles 1000 "+tc.args)
		if code != 2 || strings.TrimSpace(stderr) != tc.want {
			t.Errorf("panicsim %s: exit %d, stderr %q; want exit 2 and %q", tc.args, code, stderr, tc.want)
		}
	}
}
