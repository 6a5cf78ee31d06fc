package pageforgesim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// citingDocs are the documents whose citations of tests, experiments, make
// targets and packages must name things that exist; the verify skill's
// notes (under a dot directory) are found by skillGlob.
var citingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

const skillGlob = ".*/skills/verify/SKILL.md"

var (
	// A test-function name; one followed by "<" is a placeholder such as
	// TestRepro_<seed> and is not checked.
	citedFunc = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z_][A-Za-z0-9_]*`)
	// A -bench= pattern names benchmarks by prefix.
	citedBench = regexp.MustCompile("-bench=([^\\s`'\"]+)")
	citedExp   = regexp.MustCompile(`-exp[ =]([a-z0-9_]+)`)
	// make at the start of a code span or of a command line.
	citedMake = regexp.MustCompile("(?:^|`)(?:\\$ )?make ([a-z][a-z0-9-]*)")
	// internal/PKG, optionally with a path inside it ("internal/obs/hist.go");
	// "internal/platform.DefaultConfig" cites package platform.
	citedPath = regexp.MustCompile(`\binternal/[a-z0-9_]+(?:/[A-Za-z0-9_.-]*[A-Za-z0-9_])*`)
	// A command line inside a fenced block; every other fenced line is
	// sample output or code and cites nothing.
	commandLine  = regexp.MustCompile(`^(?:\$ )?(?:go |make |bash |pageforge |/tmp/pf )`)
	testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*)\(`)
	makeTarget   = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	// A row of DESIGN.md §3's inventory: package cell, role, file list.
	inventoryRow = regexp.MustCompile("^\\| `([^`]+)`([^|]*)\\|[^|]*\\|([^|]*)\\|\\s*$")
	goFileName   = regexp.MustCompile(`[A-Za-z0-9_]+\.go\b`)
)

// TestDocCitationsExist fails on any test, fuzz target, benchmark or
// example name, -exp experiment, make target or internal/ path that the
// docs cite but the repository does not have, or on a file that DESIGN.md
// §3's inventory lists but its package does not have, so a rename or
// deletion cannot leave the docs pointing at nothing.
func TestDocCitationsExist(t *testing.T) {
	checkInventoryFiles(t)
	funcs := declaredTestFuncs(t)
	exps := experimentNames(t)
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	skills, err := filepath.Glob(skillGlob)
	if err != nil || len(skills) != 1 {
		t.Fatalf("want one verify skill matching %s, found %v (err %v)", skillGlob, skills, err)
	}
	cited := 0
	for _, doc := range append(citingDocs, skills...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range docCitationLines(string(text)) {
			if line == "" {
				continue
			}
			where := doc + ":" + strconv.Itoa(i+1)
			for _, m := range citedBench.FindAllStringSubmatch(line, -1) {
				if p := strings.Trim(m[1], "^$"); p != "." && !hasPrefixIn(funcs, p) {
					t.Errorf("%s: -bench=%s matches no benchmark", where, m[1])
				}
				cited++
			}
			rest := citedBench.ReplaceAllString(line, "")
			for _, loc := range citedFunc.FindAllStringIndex(rest, -1) {
				name := rest[loc[0]:loc[1]]
				if strings.HasPrefix(rest[loc[1]:], "<") {
					continue
				}
				if !funcs[name] {
					t.Errorf("%s: %s names no test, fuzz target, benchmark or example", where, name)
				}
				cited++
			}
			for _, m := range citedExp.FindAllStringSubmatch(line, -1) {
				if !exps[m[1]] {
					t.Errorf("%s: -exp %s names no experiment", where, m[1])
				}
				cited++
			}
			for _, m := range citedMake.FindAllStringSubmatch(line, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: make %s names no Makefile target", where, m[1])
				}
				cited++
			}
			for _, p := range citedPath.FindAllString(line, -1) {
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s: %s does not exist", where, p)
				}
				cited++
			}
		}
	}
	if cited < 100 {
		t.Fatalf("found only %d citations; is the test running from the repository root?", cited)
	}
}

// docCitationLines returns the document's lines with the fenced lines that
// are not commands blanked, keeping line numbers.
func docCitationLines(text string) []string {
	lines := strings.Split(text, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(l, "```") {
			fenced = !fenced
			lines[i] = ""
			continue
		}
		if fenced && !commandLine.MatchString(strings.TrimSpace(l)) {
			lines[i] = ""
		}
	}
	return lines
}

// declaredTestFuncs collects every Test, Fuzz, Benchmark and Example
// function declared in a _test.go file of the repository, the benchmark
// module included.
func declaredTestFuncs(t *testing.T) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDecl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !funcs["TestDocCitationsExist"] {
		t.Fatal("the walk missed this file; is the test running from the repository root?")
	}
	return funcs
}

// experimentNames reads the names `pageforge run -exp` accepts from the
// CLI's experimentTable, plus "all".
func experimentNames(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", "pageforge", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{"all": true}
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "experimentTable" || len(vs.Values) != 1 {
			return true
		}
		for _, e := range vs.Values[0].(*ast.CompositeLit).Elts {
			row := e.(*ast.CompositeLit)
			if lit, ok := row.Elts[0].(*ast.BasicLit); ok {
				name, _ := strconv.Unquote(lit.Value)
				names[name] = true
			}
		}
		return false
	})
	if len(names) < 10 {
		t.Fatalf("found only %d experiments in cmd/pageforge's experimentTable", len(names))
	}
	return names
}

func hasPrefixIn(names map[string]bool, prefix string) bool {
	for n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// checkInventoryFiles requires every *.go name in the file column of
// DESIGN.md §3's inventory table to exist in that row's package directory.
// The row "`pageforge` (root)" is the repository root, and "`examples/*`"
// means every example directory.
func checkInventoryFiles(t *testing.T) {
	t.Helper()
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(text), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 3")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	files := 0
	for _, line := range strings.Split(sec, "\n") {
		m := inventoryRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		dir := m[1]
		if strings.Contains(m[2], "(root)") {
			dir = "."
		}
		dirs, err := filepath.Glob(dir)
		if err != nil || len(dirs) == 0 {
			t.Errorf("DESIGN.md §3: package %s does not exist", m[1])
			continue
		}
		for _, name := range goFileName.FindAllString(m[3], -1) {
			for _, d := range dirs {
				if _, err := os.Stat(filepath.Join(d, name)); err != nil {
					t.Errorf("DESIGN.md §3: %s lists %s, which %s does not have", m[1], name, d)
				}
			}
			files++
		}
	}
	if files < 40 {
		t.Fatalf("DESIGN.md §3 lists only %d files; has the inventory table changed shape?", files)
	}
}
