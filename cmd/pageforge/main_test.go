package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	pageforgesim "repro"
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

// TestExperimentNamesMatchRegistry pins list, usage and -exp validation to
// the one experiment registry, and checks that a selection renders only
// itself: -exp fig9 prints Figure 9 but not Figure 10, though the two
// share one queueing phase.
func TestExperimentNamesMatchRegistry(t *testing.T) {
	reg := pageforgesim.Experiments()
	want := reg.Names()

	stdout, _, code := runCLI(t, "list")
	if code != 0 {
		t.Fatalf("list: exit status %d", code)
	}
	section, _, _ := strings.Cut(stdout, "\n\n")
	var listed []string
	for _, line := range strings.Split(section, "\n")[1:] {
		listed = append(listed, strings.Fields(line)[0])
	}
	if !slices.Equal(listed, want) {
		t.Errorf("list names %v, want %v", listed, want)
	}

	_, stderr, code := runCLI(t)
	m := regexp.MustCompile(`-exp all\|([a-z0-9|]+)\]`).FindStringSubmatch(stderr)
	if code != 2 || m == nil {
		t.Fatalf("usage: exit status %d, no -exp alternatives in %q", code, stderr)
	}
	if got := strings.Split(m[1], "|"); !slices.Equal(got, want) {
		t.Errorf("usage names %v, want %v", got, want)
	}

	_, err := reg.Select("bogus")
	if err == nil || !strings.Contains(err.Error(), "(valid: all, "+strings.Join(want, ", ")+")") {
		t.Errorf("Select(bogus) = %v, want the registry's names", err)
	}
	if all, err := reg.Select("all"); err != nil || !slices.Equal(all.Names(), want) {
		t.Errorf("Select(all) = %v, %v; want the whole registry", all.Names(), err)
	}
	for _, name := range want {
		if sel, err := reg.Select(name); err != nil || !slices.Equal(sel.Names(), []string{name}) {
			t.Errorf("Select(%s) = %v, %v", name, sel.Names(), err)
		}
	}

	stdout, stderr, code = runCLI(t, "run", "-exp", "fig9", "-fast", "-quiet", "-apps", "img_dnn")
	if code != 0 || !strings.Contains(stdout, "Figure 9:") || strings.Contains(stdout, "Figure 10:") {
		t.Errorf("run -exp fig9: exit status %d, stdout %q, stderr %q; want Figure 9 alone", code, stdout, stderr)
	}
}

// TestRunRejectsDuplicateApps pins that a repeated -apps name exits 2
// before any run, rather than counting the app twice in every average.
func TestRunRejectsDuplicateApps(t *testing.T) {
	stdout, stderr, code := runCLI(t, "run", "-exp", "fig7", "-fast", "-quiet", "-apps", "img_dnn,img_dnn")
	if code != 2 || stdout != "" || !strings.Contains(stderr, `"img_dnn"`) {
		t.Errorf("exit status %d, stdout %q, stderr %q; want 2, no rows and the repeated name", code, stdout, stderr)
	}
}

// TestOutputPathsCheckedBeforeRuns pins that a profile or bench artifact
// path that cannot be created fails with exit 3 before any simulation,
// rather than after the whole run.
func TestOutputPathsCheckedBeforeRuns(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "out")
	for _, args := range [][]string{
		{"run", "-exp", "table5", "-fast", "-memprofile", missing},
		{"run", "-exp", "table5", "-fast", "-cpuprofile", missing},
		{"bench", "-fast", "-out", missing},
	} {
		stdout, stderr, code := runCLI(t, args...)
		if code != 3 || stdout != "" || !strings.Contains(stderr, "not writable") || strings.Contains(stderr, "run  ") {
			t.Errorf("%v: exit status %d, stdout %q, stderr %q; want 3 before any run", args, code, stdout, stderr)
		}
	}
}

// TestSweepRejectsBadInput pins the sweep's input checks. Unchecked, a
// page count below 1 panics, a negative budget never returns, and a
// budget shorter than the longest 20 ms interval prints NaN rows.
func TestSweepRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-pages", "0"},
		{"-pages", "-3"},
		{"-seconds", "-1"},
		{"-seconds", "0"},
		{"-seconds", "0.015"},
		{"-seconds", "NaN"},
		{"-seconds", "+Inf"},
	} {
		stdout, stderr, code := runCLI(t, append([]string{"sweep"}, args...)...)
		if code != 2 {
			t.Errorf("sweep %v: exit status %d, want 2 (stderr %q)", args, code, stderr)
		}
		if stdout != "" || !strings.Contains(stderr, args[0]) {
			t.Errorf("sweep %v: stdout %q, stderr %q; want no rows and a message naming %s", args, stdout, stderr, args[0])
		}
	}
}
