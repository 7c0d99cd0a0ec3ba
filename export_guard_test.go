package mlkv_test

import (
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

// modulePath is the import path of the repo root (go.mod).
const modulePath = "github.com/llm-db/mlkv-go"

// goPkg is one directory's non-test Go files, parsed.
type goPkg struct {
	dir        string // slash-separated, relative to the repo root
	importPath string // "" outside this module's tree
	name       string
	files      []*ast.File
}

// TestInternalExportsHaveProductCallers fails when a top-level func, type,
// const or var exported by a non-test file under internal/ is named
// nowhere in the repo's non-test Go (the root package, internal/, cmd/,
// examples/ and the benchmark module) except at its own declaration. Code
// that only tests reach is a knob no product path turns: it goes, or it
// gets a caller.
//
// A use is a pkg.Name selector whose pkg resolves, through that file's
// imports, to the declaring package, or a bare Name inside the declaring
// package that is not a field, method or selector name, so an identifier
// of the same name elsewhere cannot mask a dead one.
func TestInternalExportsHaveProductCallers(t *testing.T) {
	pkgs := parseRepo(t, ".")
	byPath := make(map[string]*goPkg, len(pkgs))
	for _, p := range pkgs {
		if p.importPath != "" {
			byPath[p.importPath] = p
		}
	}

	type decl struct {
		pkg  *goPkg
		name string
	}
	var decls []decl
	declared := make(map[*ast.Ident]bool) // declaration sites are not uses
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				for _, id := range topLevelNames(d) {
					if ast.IsExported(id.Name) {
						declared[id] = true
						decls = append(decls, decl{p, id.Name})
					}
				}
			}
		}
	}

	used := make(map[string]bool) // importPath + "." + name
	for _, p := range pkgs {
		for _, f := range p.files {
			imports := fileImports(f, byPath)
			skip := make(map[*ast.Ident]bool) // field, method and selector names
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					skip[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
						if ip, ok := imports[x.Name]; ok {
							used[ip+"."+n.Sel.Name] = true
						}
					}
				case *ast.Field:
					for _, id := range n.Names {
						skip[id] = true
					}
				case *ast.FuncDecl:
					if n.Recv != nil {
						skip[n.Name] = true
					}
				case *ast.Ident:
					if p.importPath != "" && !skip[n] && !declared[n] {
						used[p.importPath+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}

	var dead []string
	for _, d := range decls {
		if !used[d.pkg.importPath+"."+d.name] {
			dead = append(dead, d.pkg.name+"."+d.name+" ("+d.pkg.dir+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported from internal/ but no non-test Go names it: give it a product caller or delete it", d)
	}
}

// parseRepo parses every non-test Go file under root, one goPkg per
// directory, skipping hidden directories and testdata (build outputs and
// fixtures). A nested module's packages are parsed for their uses but
// get no import path. Build constraints are ignored: a name used on any
// platform counts.
func parseRepo(t *testing.T, root string) []*goPkg {
	t.Helper()
	fset := token.NewFileSet()
	var pkgs []*goPkg
	var nested []string // roots of nested modules (benchmark/), slash-terminated
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(p)
		pkg := &goPkg{dir: rel}
		for _, e := range entries {
			if e.Name() == "go.mod" && p != root {
				nested = append(nested, rel+"/")
			}
		}
		switch {
		case rel == ".":
			pkg.importPath = modulePath
		case !hasAnyPrefix(rel+"/", nested):
			pkg.importPath = modulePath + "/" + rel
		}
		for _, e := range entries {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(p, n), nil, 0)
			if err != nil {
				return err
			}
			pkg.name = f.Name.Name
			pkg.files = append(pkg.files, f)
		}
		if len(pkg.files) > 0 {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// topLevelNames returns the identifiers a top-level declaration binds:
// a plain func's name, or each type, const and var spec's names. Methods
// bind no package-level name.
func topLevelNames(d ast.Decl) []*ast.Ident {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// fileImports maps each name f refers to an import by onto its path. An
// unaliased import goes by the imported package's own name when it is in
// this module, by its last path element otherwise.
func fileImports(f *ast.File, byPath map[string]*goPkg) map[string]string {
	m := make(map[string]string, len(f.Imports))
	for _, imp := range f.Imports {
		ip, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(ip)
		if p, ok := byPath[ip]; ok {
			name = p.name
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = ip
	}
	return m
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
