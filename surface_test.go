package viewseeker

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/unreferenced-exports.txt from the current tree")

// surfaceAllowlist lists, one "import/path.Name" a line, the exported
// top-level identifiers of internal packages that no non-test file outside
// their package references.
const surfaceAllowlist = "testdata/unreferenced-exports.txt"

// TestAPISurface gates the internal packages' exported surface against
// regrowth: every exported top-level identifier (function, type, variable
// or constant; methods and fields are not top-level) that no non-test file
// outside its package names must be on the tracked allowlist, and every
// allowlisted identifier must still be such an export. An export only
// tests or its own package use is surface without a caller: reference it,
// unexport it, move it into test code, or — when it is deliberate, such as
// a type named only in exported signatures — regenerate the allowlist
// with go test -run TestAPISurface -update . and review the diff.
//
// References are resolved syntactically: a selector pkg.Name whose pkg is
// an import of the package. Every non-test Go file in the repository
// counts, the benchmark module's included.
func TestAPISurface(t *testing.T) {
	got, err := unreferencedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	if *updateSurface {
		if err := os.WriteFile(surfaceAllowlist, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))
	for _, id := range got {
		if !slices.Contains(want, id) {
			t.Errorf("%s is exported but no non-test file outside its package references it", id)
		}
	}
	for _, id := range want {
		if !slices.Contains(got, id) {
			t.Errorf("%s is allowlisted but is no longer an unreferenced export; drop it from %s", id, surfaceAllowlist)
		}
	}
}

// unreferencedExports walks the module rooted at root and returns, sorted,
// the exported top-level identifiers of its internal packages that no
// non-test file outside their own package references.
func unreferencedExports(root string) ([]string, error) {
	exports := map[string]bool{} // "import/path.Name"
	refs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix("viewseeker/"+filepath.ToSlash(filepath.Dir(path)), "/.")
		if strings.HasPrefix(pkg, "viewseeker/internal/") {
			for _, id := range topLevelExports(f) {
				exports[pkg+"."+id] = true
			}
		}
		imports := map[string]string{} // local name → import path
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			local := p[strings.LastIndex(p, "/")+1:]
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					refs[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for id := range exports {
		if !refs[id] {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out, nil
}

// topLevelExports returns the exported names a file declares at package
// scope.
func topLevelExports(f *ast.File) []string {
	var out []string
	add := func(id *ast.Ident) {
		if id.IsExported() {
			out = append(out, id.Name)
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id)
					}
				}
			}
		}
	}
	return out
}
