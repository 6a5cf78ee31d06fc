package main

import (
	"bytes"
	"encoding/json"
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

// TestOutputPathsCheckedBeforeRuns pins that an -out directory that cannot
// be created, or that already holds files, fails with exit 3 before any
// simulation, rather than after the whole run.
func TestOutputPathsCheckedBeforeRuns(t *testing.T) {
	tmp := t.TempDir()
	file := filepath.Join(tmp, "file")
	used := filepath.Join(tmp, "used")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(used, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(used, "series.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	underFile := filepath.Join(file, "out")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"run", "-exp", "table5", "-fast", "-out", underFile}, "not a directory"},
		{[]string{"run", "-exp", "table5", "-fast", "-out", used}, "not empty"},
		{[]string{"explain", "-fast", "-out", underFile}, "not a directory"},
		{[]string{"explain", "-fast", "-out", used}, "not empty"},
	} {
		stdout, stderr, code := runCLI(t, c.args...)
		if code != 3 || stdout != "" || !strings.Contains(stderr, c.want) || strings.Contains(stderr, "run  ") {
			t.Errorf("%v: exit status %d, stdout %q, stderr %q; want 3 and %q before any run", c.args, code, stdout, stderr, c.want)
		}
	}
}

// TestOutDirRoundTrip pins the artifact directories end to end: run -out
// writes all five artifacts, explain -out writes a ledger and a series, and
// report renders that directory's tracks and ledger, with no rate for a
// window that spans no simulated cycles.
func TestOutDirRoundTrip(t *testing.T) {
	tmp := t.TempDir()
	runDir := filepath.Join(tmp, "run")
	if _, stderr, code := runCLI(t, "run", "-exp", "fig7", "-fast", "-quiet", "-apps", "img_dnn", "-out", runDir); code != 0 {
		t.Fatalf("run -out: exit status %d, stderr %q", code, stderr)
	}
	for _, name := range []string{"trace.json", "metrics.json", "series.json", "cpu.pprof", "heap.pprof"} {
		b, err := os.ReadFile(filepath.Join(runDir, name))
		if err != nil || len(b) == 0 {
			t.Errorf("run -out: %s is missing or empty (err %v)", name, err)
			continue
		}
		if strings.HasSuffix(name, ".json") && !json.Valid(b) {
			t.Errorf("run -out: %s does not parse as JSON", name)
		}
	}

	explainDir := filepath.Join(tmp, "explain")
	if _, stderr, code := runCLI(t, "explain", "-fast", "-mode", "KSM", "-out", explainDir); code != 0 {
		t.Fatalf("explain -out: exit status %d, stderr %q", code, stderr)
	}
	stdout, stderr, code := runCLI(t, "report", explainDir)
	if code != 0 {
		t.Fatalf("report: exit status %d, stderr %q", code, stderr)
	}
	converge := regexp.MustCompile(`(?m)^  converge \d+ .* -$`)
	for _, want := range []*regexp.Regexp{regexp.MustCompile(`(?m)^track `), regexp.MustCompile(`(?m)^ledger —`), converge} {
		if !want.MatchString(stdout) {
			t.Errorf("report output has no line matching %s:\n%s", want, stdout)
		}
	}

	if _, _, code := runCLI(t, "report"); code != 2 {
		t.Errorf("report with no directory: exit status %d, want 2", code)
	}
	if _, _, code := runCLI(t, "report", filepath.Join(tmp, "missing")); code != 1 {
		t.Errorf("report of a directory with no series.json: exit status %d, want 1", code)
	}
}

// TestUsageNamesEveryFlag pins the help texts to the flags: for each
// subcommand, usage() and the Usage block of the package comment name
// exactly the flags its FlagSet registers (as -h lists them), so a deleted
// flag cannot linger in either text and a new one cannot go unlisted.
func TestUsageNamesEveryFlag(t *testing.T) {
	cmdRe := regexp.MustCompile(`pageforge ([a-z]+)`)
	flagRe := regexp.MustCompile(`\[-([a-z-]+)`)
	// named maps each subcommand to the sorted flags its lines of text name.
	named := func(lines []string) map[string][]string {
		out := map[string][]string{}
		cmd := ""
		for _, line := range lines {
			if m := cmdRe.FindStringSubmatch(line); m != nil {
				cmd = m[1]
			}
			for _, f := range flagRe.FindAllStringSubmatch(line, -1) {
				out[cmd] = append(out[cmd], f[1])
			}
		}
		for _, flags := range out {
			slices.Sort(flags)
		}
		return out
	}
	_, usageText, _ := runCLI(t)
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var docLines []string
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, "//\t") {
			docLines = append(docLines, line)
		}
	}
	texts := map[string]map[string][]string{
		"usage()":         named(strings.Split(usageText, "\n")),
		"package comment": named(docLines),
	}
	for _, cmd := range []string{"run", "explain", "report"} {
		_, help, code := runCLI(t, cmd, "-h")
		if code != 0 {
			t.Fatalf("%s -h: exit status %d", cmd, code)
		}
		var registered []string
		for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(help, -1) {
			registered = append(registered, m[1])
		}
		slices.Sort(registered)
		if len(registered) == 0 {
			t.Fatalf("%s -h lists no flags:\n%s", cmd, help)
		}
		for name, text := range texts {
			if got := text[cmd]; !slices.Equal(got, registered) {
				t.Errorf("%s names %s flags %v, its FlagSet registers %v", name, cmd, got, registered)
			}
		}
	}
}
