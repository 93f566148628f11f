package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when DEATHBENCH_ARGS is set, so a test can
// check what the command prints and how it exits.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("DEATHBENCH_ARGS"); ok {
		os.Args = append([]string{"deathbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOnlyRefusesUnknownIDs: -only with an ID no experiment has exits 2
// and names every unknown ID (upper-cased, as -only matches them; an
// empty entry is skipped), and runs nothing, not even the IDs it knows.
func TestOnlyRefusesUnknownIDs(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "DEATHBENCH_ARGS=-only E5,e99,,X1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit %v, want status 2\n%s", err, out)
	}
	if got, want := string(out), "deathbench: unknown experiment E99, X1\n"; got != want {
		t.Errorf("output %q, want %q", got, want)
	}
}
