package doubleplay_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata golden fixtures")

// TestExportedSurface pins every exported top-level func, type, var and
// const of the packages under internal/ to testdata/exports.golden, one
// sorted line each: package directory, name, kind and who outside the
// package uses it. The flag is "code" when another package's non-test
// code (cmd/, examples/, benchmark/ or the facade) names it, "tests" when
// only other packages' tests do and "none" when nothing outside the
// package does; a package's own external tests (package x_test) are
// inside. A name that no other package's code uses is exported only when
// an exported field, parameter or result carries it, when it is an error
// sentinel an exported function returns, or when other packages' tests
// need it. The golden holds flags, not counts, so a new call site does
// not rewrite it; a new exported name, a deleted one or a change of flag
// does, with -update.
func TestExportedSurface(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string]map[string]string{} // package dir → name → kind
	flags := map[string]string{}            // "dir name" → "code" or "tests"
	files := map[string]*ast.File{}

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(p)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for p, f := range files {
		dir := path.Dir(p)
		if !strings.HasPrefix(dir, "internal/") || strings.HasSuffix(p, "_test.go") {
			continue
		}
		if decls[dir] == nil {
			decls[dir] = map[string]string{}
		}
		add := func(id *ast.Ident, kind string) {
			if id.IsExported() {
				decls[dir][id.Name] = kind
			}
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				if dl.Recv == nil {
					add(dl.Name, "func")
				}
			case *ast.GenDecl:
				for _, s := range dl.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, "type")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, dl.Tok.String())
						}
					}
				}
			}
		}
	}

	for p, f := range files {
		dir := path.Dir(p)
		imported := map[string]string{} // local name → package dir
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			pdir, ok := strings.CutPrefix(ip, "doubleplay/")
			if !ok || decls[pdir] == nil || pdir == dir {
				continue
			}
			local := path.Base(pdir)
			if im.Name != nil {
				local = im.Name.Name
			}
			imported[local] = pdir
		}
		if len(imported) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pdir, ok := imported[x.Name]
			if !ok {
				return true
			}
			if _, ok := decls[pdir][sel.Sel.Name]; !ok {
				return true
			}
			key := pdir + " " + sel.Sel.Name
			if !strings.HasSuffix(p, "_test.go") {
				flags[key] = "code"
			} else if flags[key] == "" {
				flags[key] = "tests"
			}
			return true
		})
	}

	var lines []string
	for dir, names := range decls {
		for name, kind := range names {
			use := flags[dir+" "+name]
			if use == "" {
				use = "none"
			}
			lines = append(lines, fmt.Sprintf("%s %s %s %s", dir, name, kind, use))
		}
	}
	sort.Strings(lines)
	got := []byte(strings.Join(lines, "\n") + "\n")

	const golden = "testdata/exports.golden"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test . -run TestExportedSurface -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exported surface of internal/ differs from %s (run `go test . -run TestExportedSurface -update` after checking the change):\n%s",
			golden, lineDiff(string(want), string(got)))
	}
}

// lineDiff lists the lines only in want ("-") and only in got ("+").
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var out []string
	for l := range w {
		if !g[l] {
			out = append(out, "- "+l)
		}
	}
	for l := range g {
		if !w[l] {
			out = append(out, "+ "+l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][2:] < out[j][2:] })
	return strings.Join(out, "\n")
}
