package repro_test

import (
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The exported surfaces of the facade and of the selection engine
// (internal/core) are pinned as golden lists: every package-level name
// the package declares and every exported method of its types, one per
// line. A new option, method, re-export or entry point is then a
// visible edit of testdata/surface.golden or
// testdata/surface_core.golden, so a twin of an existing one cannot
// slip in unseen. `go test . -run FacadeSurface -update` rewrites both
// goldens from the tree.
var update = flag.Bool("update", false, "rewrite testdata/surface*.golden from the packages in the tree")

func TestFacadeSurface(t *testing.T) {
	for _, c := range []struct{ dir, golden string }{
		{".", "surface.golden"},
		{filepath.Join("internal", "core"), "surface_core.golden"},
	} {
		got := surface(t, c.dir)
		golden := filepath.Join("testdata", c.golden)
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s surface differs from %s (rerun with -update if the change is meant):\n got:\n%s\nwant:\n%s",
				c.dir, golden, got, want)
		}
	}
}

// surface lists the exported names of the package in dir from its
// non-test source, sorted: "const X", "var X", "func X", "type X", and
// "method T.M" for each exported method of an exported type.
func surface(t *testing.T, dir string) string {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "repro/"+dir)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, n := range v.Names {
				lines = append(lines, kind+" "+n)
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			lines = append(lines, "func "+f.Name)
		}
	}
	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		lines = append(lines, "type "+typ.Name)
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		for _, m := range typ.Methods {
			lines = append(lines, "method "+typ.Name+"."+m.Name)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
