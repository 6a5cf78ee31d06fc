package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the pageforge command: with
// PAGEFORGE_RUN_MAIN set, the process runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("PAGEFORGE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the command with args in a child process and returns its
// stdout, stderr and exit status.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PAGEFORGE_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exitErr *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exitErr):
		code = exitErr.ExitCode()
	default:
		t.Fatalf("running the command: %v", err)
	}
	return out.String(), errOut.String(), code
}

func TestRunUnknownExperimentExits2(t *testing.T) {
	stdout, stderr, code := runCLI(t, "run", "-exp", "bogus", "-fast", "-quiet")
	if code != 2 {
		t.Fatalf("exit status %d, want 2 (stderr %q)", code, stderr)
	}
	if stdout != "" {
		t.Errorf("stdout = %q, want empty", stdout)
	}
	for _, want := range []string{`unknown experiment "bogus"`, "all", "fig7", "stream"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr %q does not mention %q", stderr, want)
		}
	}
}

func TestCheckExperimentAcceptsListedNames(t *testing.T) {
	if err := checkExperiment("all"); err != nil {
		t.Errorf("all: %v", err)
	}
	for _, e := range experimentTable {
		if err := checkExperiment(e[0]); err != nil {
			t.Errorf("%s: %v", e[0], err)
		}
	}
}
