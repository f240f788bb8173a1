package acasxval

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports lists the exported top-level internal/ names that only
// tests reference, each with the reason it stays.
var testOnlyExports = map[string]string{
	"fault.ToConfig":          "codec half: FuzzFaultProfileParams round-trips FromConfig through it",
	"montecarlo.SpecToConfig": "codec half: FuzzRareEventSpecParams round-trips the rare-event spec codec through it",
	"mdp.ValidateProblem":     "oracle: grid2d_test checks the grid-world model against the MDP contract",
	"mdp.BellmanResidual":     "oracle: grid2d_test and the mdp solver tests check solutions with it",
	"mdp.NewTabular":          "oracle: acasx_test builds the generic tau-expanded problem from it",
	"geom.CPAOf":              "oracle: encounter_test checks the closest approach of generated encounters",
	"uav.New":                 "validating constructor with many test call sites",
	"tracker.New":             "validating constructor with many test call sites",
}

// TestInternalExportsHaveNonTestUsers fails on any exported top-level name
// in internal/ that no non-test Go file of the root module, cmd/, examples/
// or bench/ references, unless testOnlyExports lists it. It also fails when
// a listed name gains a non-test user or no longer exists, so the list
// stays exact.
func TestInternalExportsHaveNonTestUsers(t *testing.T) {
	unused := unusedInternalExports(t, ".")
	for _, name := range unused {
		if _, ok := testOnlyExports[name]; !ok {
			t.Errorf("%s has no non-test user: delete it or unexport it", name)
		}
	}
	for name := range testOnlyExports {
		i := sort.SearchStrings(unused, name)
		if i == len(unused) || unused[i] != name {
			t.Errorf("allowlisted %s is gone or has a non-test user: drop it from testOnlyExports", name)
		}
	}
}

// unusedInternalExports parses every non-test Go file under root and
// returns, sorted, the exported top-level names of internal/ packages
// ("pkg.Name", relative to internal/) that no file references. A method's
// reference to its own receiver type, and a declaration's reference to
// itself, do not count.
func unusedInternalExports(t *testing.T, root string) []string {
	t.Helper()
	fset := token.NewFileSet()
	type file struct {
		dir string // slash-separated directory relative to root
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(dir), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: "dir.Name" for each exported top-level name of internal/.
	declared := map[string]bool{}
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		for _, decl := range fl.f.Decls {
			for _, name := range declNames(decl) {
				if ast.IsExported(name) {
					declared[fl.dir+"."+name] = true
				}
			}
		}
	}

	used := map[string]bool{}
	for _, fl := range files {
		imports := map[string]string{} // local name -> directory under root
		for _, spec := range fl.f.Imports {
			ipath, _ := strconv.Unquote(spec.Path.Value)
			rel, ok := strings.CutPrefix(ipath, "acasxval/")
			if !ok {
				continue
			}
			local := path.Base(rel)
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = rel
		}
		for _, decl := range fl.f.Decls {
			owners := declOwners(decl)
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// A method's name is not a reference to a same-named
					// top-level declaration.
					if n.Recv != nil {
						ast.Inspect(n.Recv, visit)
					}
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.SelectorExpr:
					// pkg.Name refers to an imported declaration; x.Name is a
					// field or method, so only x is searched further.
					if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
						if dir, ok := imports[x.Name]; ok {
							used[dir+"."+n.Sel.Name] = true
							return false
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Field:
					// Field, parameter and interface method names are not
					// references; their types are.
					if n.Type != nil {
						ast.Inspect(n.Type, visit)
					}
					return false
				case *ast.Ident:
					if !owners[n.Name] {
						used[fl.dir+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(decl, visit)
		}
	}

	var unused []string
	for key := range declared {
		if !used[key] {
			unused = append(unused, strings.TrimPrefix(key, "internal/"))
		}
	}
	sort.Strings(unused)
	return unused
}

// declNames returns the package-level names decl declares; a method
// declares none.
func declNames(decl ast.Decl) []string {
	var names []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			names = append(names, d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				names = append(names, s.Name.Name)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					names = append(names, n.Name)
				}
			}
		}
	}
	return names
}

// declOwners returns the names whose references inside decl are
// self-references: the names decl declares, or for a method the base type
// of its receiver.
func declOwners(decl ast.Decl) map[string]bool {
	owners := map[string]bool{}
	for _, name := range declNames(decl) {
		owners[name] = true
	}
	if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
		recv := fn.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		switch r := recv.(type) {
		case *ast.IndexExpr:
			recv = r.X
		case *ast.IndexListExpr:
			recv = r.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			owners[id.Name] = true
		}
	}
	return owners
}
