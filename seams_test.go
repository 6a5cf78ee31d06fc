package pageforgesim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// viewMethods name the methods that hand out read-only frame views
// (mem.Phys.Page and ReadLine, and vm.VM.Page on top of them). A view may
// be shared by every frame holding the same bytes, so all frame mutation
// goes through mem.Phys's write methods instead (DESIGN.md §10).
var viewMethods = map[string]bool{"Page": true, "ReadLine": true}

// writerArg names the calls that write into one of their arguments, with
// the index of that argument.
var writerArg = map[string]int{
	"copy": 0, "clear": 0,
	"FillBytes": 0, "PutUint16": 0, "PutUint32": 0, "PutUint64": 0,
}

// TestNoWritesThroughPageViews walks every Go file of the root package and
// under internal/, cmd/ and examples/, tests included, and fails on any
// write into a frame view: copy or clear into a Page(…) or ReadLine(…)
// result, an element assignment (=, ^=, |=, …) or ++/-- on one, a
// FillBytes or PutUintN into one, and the same writes through a variable
// bound to one.
func TestNoWritesThroughPageViews(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	lint := func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		for _, pos := range viewWrites(f) {
			t.Errorf("%s: write through a read-only frame view; use mem.Phys.WriteAt, CopyPage or SeedPage", fset.Position(pos))
		}
		return nil
	}
	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range root {
		if err := lint(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			return lint(path)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 {
		t.Fatalf("walked only %d Go files; is the test running from the repository root?", files)
	}
}

// TestViewWritesLint checks the lint on a sample of flagged and allowed
// statements, so a broken walk cannot pass by finding nothing.
func TestViewWritesLint(t *testing.T) {
	const src = `package x
func f() {
	copy(p.Page(a), b)              // flagged
	copy(p.Page(a)[8:], b)          // flagged
	p.Page(a)[7] = 1                // flagged
	p.ReadLine(a, 2)[0] ^= 1        // flagged
	p.Page(a)[1] |= 2               // flagged
	p.Page(a)[3]++                  // flagged
	rng.FillBytes(p.Page(a))        // flagged
	pg := p.Page(a)
	pg[0] = 1                       // flagged
	binary.LittleEndian.PutUint64(pg[8:], 1) // flagged
	v, err := m.Page(g)
	clear(v)                        // flagged
	copy(buf, p.Page(a))            // allowed: reads the view
	buf[0] = p.Page(a)[0]           // allowed
	p.WriteAt(a, 0, buf)            // allowed
	_ = err
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "flagged") {
				want[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	got := map[int]bool{}
	for _, pos := range viewWrites(f) {
		got[fset.Position(pos).Line] = true
	}
	for line := range want {
		if !got[line] {
			t.Errorf("line %d: write not flagged", line)
		}
	}
	for line := range got {
		if !want[line] {
			t.Errorf("line %d: flagged, but it does not write a view", line)
		}
	}
}

// viewWrites returns the position of every write into a frame view in f.
func viewWrites(f *ast.File) []token.Pos {
	// Variables bound to a view, identified by their declaring object.
	bound := map[*ast.Object]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for i, rhs := range as.Rhs {
				if !isViewCall(rhs) {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Obj != nil {
					bound[id.Obj] = true
				}
			}
		}
		return true
	})
	isView := func(e ast.Expr) bool {
		e = sliced(e)
		if id, ok := e.(*ast.Ident); ok {
			return id.Obj != nil && bound[id.Obj]
		}
		return isViewCall(e)
	}
	var out []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok && isView(ix.X) {
					out = append(out, s.Pos())
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := s.X.(*ast.IndexExpr); ok && isView(ix.X) {
				out = append(out, s.Pos())
			}
		case *ast.CallExpr:
			var name string
			switch fn := s.Fun.(type) {
			case *ast.Ident:
				name = fn.Name
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			}
			if i, ok := writerArg[name]; ok && i < len(s.Args) && isView(s.Args[i]) {
				out = append(out, s.Pos())
			}
		}
		return true
	})
	return out
}

// isViewCall reports whether e calls a view method. A multi-value call such
// as vm.VM.Page binds its view to the first left-hand name.
func isViewCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && viewMethods[sel.Sel.Name]
}

// sliced strips parentheses and slicing: the expression whose backing
// array a write through e lands in.
func sliced(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return e
		}
	}
}
