package acasxval

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
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

// testOnlyFacade lists the exported root-package names that no command,
// example or benchmark selects, each with the reason it stays.
var testOnlyFacade = map[string]string{}

// testOnlyMethods lists the exported methods of internal/ types
// ("pkg.Type.Method") whose name nothing outside the tests selects, each
// with the reason it stays.
var testOnlyMethods = map[string]string{
	"config.Params.Dump":         "codec half: the config, fault and rare-event fuzzers and the CLI spec tests re-parse its output",
	"mdp.Tabular.AddTransition":  "oracle: the mdp solver tests build problems with it (see mdp.NewTabular)",
	"mdp.Tabular.SetReward":      "oracle: the mdp and acasx solver tests build problems with it",
	"mdp.Tabular.SetTransitions": "oracle: acasx_test builds the generic tau-expanded problem with it",
	"encounter.Range.Contains":   "oracle: encounter_test checks sampled and clamped parameters stay inside their ranges",
	"ga.Bounds.Contains":         "oracle: ga_test checks random, crossover and mutation genomes stay inside the bounds",
	"stats.Interval.Contains":    "oracle: the interval tests count how often an interval covers the true proportion",
}

// stdlibMethods are the method names standard-library interfaces declare;
// the standard library calls them, so they need no selector in this tree.
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true, "Set": true,
}

// TestInternalExportsHaveNonTestUsers applies one export rule to the whole
// API surface: an exported name without a non-test user goes, unless an
// allowlist names it with a reason. It scans the exported top-level names
// of internal/, the root facade and the exported methods of internal/
// types. A listed name that gains a user or no longer exists fails too,
// so each list stays exact.
func TestInternalExportsHaveNonTestUsers(t *testing.T) {
	files := parseTree(t, ".")
	for _, scan := range []struct {
		name   string
		unused []string
		allow  map[string]string
	}{
		{"internal", unusedInternalExports(files), testOnlyExports},
		{"facade", unusedFacadeNames(files), testOnlyFacade},
		{"methods", unusedMethods(files), testOnlyMethods},
	} {
		t.Run(scan.name, func(t *testing.T) {
			for _, msg := range allowlistErrors(scan.unused, scan.allow) {
				t.Error(msg)
			}
		})
	}
}

// TestExportScansOnFixture runs the scans over a small tree whose verdicts
// are known, so a scanner that stops seeing a kind of use or of non-use
// fails here rather than passing silently on the real tree.
func TestExportScansOnFixture(t *testing.T) {
	files := parseTree(t, filepath.Join("testdata", "exports"))
	facade := unusedFacadeNames(files)
	if !slices.Contains(facade, "Unused") {
		t.Errorf("facade scan %v misses the unused function Unused", facade)
	}
	for _, name := range []string{"Used", "SignatureOnly"} {
		if slices.Contains(facade, name) {
			t.Errorf("facade scan reports %s, which a command selects or a used signature names", name)
		}
	}
	methods := unusedMethods(files)
	if want := []string{"x.T.Dead"}; !slices.Equal(methods, want) {
		t.Errorf("method scan = %v, want %v (String, interface and selected methods exempt)", methods, want)
	}
	if errs := allowlistErrors(facade, map[string]string{"Used": "stale"}); len(errs) != 2 {
		t.Errorf("a stale allowlist entry and an unlisted name gave %d errors, want 2: %q", len(errs), errs)
	}
}

// allowlistErrors returns one message per unused name the allowlist does
// not hold and per listed name that is not unused.
func allowlistErrors(unused []string, allow map[string]string) []string {
	var errs []string
	for _, name := range unused {
		if _, ok := allow[name]; !ok {
			errs = append(errs, name+" has no non-test user: delete it or unexport it")
		}
	}
	for name := range allow {
		if !slices.Contains(unused, name) {
			errs = append(errs, "allowlisted "+name+" is gone or has a non-test user: drop it from the allowlist")
		}
	}
	sort.Strings(errs)
	return errs
}

// goFile is one parsed non-test Go file and its slash-separated directory
// relative to the scanned root.
type goFile struct {
	dir string
	f   *ast.File
}

// parseTree parses every non-test Go file under root, skipping testdata
// and hidden directories.
func parseTree(t *testing.T, root string) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
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
		files = append(files, goFile{filepath.ToSlash(dir), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// under reports whether dir is top or lies below it.
func under(dir, top string) bool { return dir == top || strings.HasPrefix(dir, top+"/") }

// moduleImports maps each local import name of f that refers to a package
// of this module to its directory under the root ("." for the root).
func moduleImports(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, spec := range f.Imports {
		ipath, _ := strconv.Unquote(spec.Path.Value)
		var rel string
		if ipath == "acasxval" {
			rel = "."
		} else if r, ok := strings.CutPrefix(ipath, "acasxval/"); ok {
			rel = r
		} else {
			continue
		}
		local := path.Base(ipath)
		if spec.Name != nil {
			local = spec.Name.Name
		}
		imports[local] = rel
	}
	return imports
}

// unusedInternalExports returns, sorted, the exported top-level names of
// internal/ packages ("pkg.Name", relative to internal/) that no file
// references. A method's reference to its own receiver type, and a
// declaration's reference to itself, do not count.
func unusedInternalExports(files []goFile) []string {
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
		imports := moduleImports(fl.f)
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
	return unusedOf(declared, used, "internal/")
}

// unusedFacadeNames returns, sorted, the exported names of the root
// package that no non-test file of cmd/, examples/ or bench/ selects as
// acasxval.Name. A name also counts as used when it appears in the
// signature of a used name, since a caller reaches it through that
// signature without spelling it.
func unusedFacadeNames(files []goFile) []string {
	declared := map[string]bool{}
	signatures := map[string]ast.Expr{}
	for _, fl := range files {
		if fl.dir != "." {
			continue
		}
		for _, decl := range fl.f.Decls {
			for name, sig := range declSignatures(decl) {
				if ast.IsExported(name) {
					declared[name] = true
					signatures[name] = sig
				}
			}
		}
	}

	used := map[string]bool{}
	for _, fl := range files {
		if !under(fl.dir, "cmd") && !under(fl.dir, "examples") && !under(fl.dir, "bench") {
			continue
		}
		imports := moduleImports(fl.f)
		ast.Inspect(fl.f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] == "." {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for grown := true; grown; {
		grown = false
		for name := range used {
			if sig := signatures[name]; sig != nil {
				ast.Inspect(sig, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						return false // pkg.Name names another package's declaration
					case *ast.Ident:
						if declared[n.Name] && !used[n.Name] {
							used[n.Name], grown = true, true
						}
					}
					return true
				})
			}
		}
	}
	return unusedOf(declared, used, "")
}

// unusedMethods returns, sorted, the exported methods of internal/ types
// ("pkg.Type.Method", relative to internal/) whose name no non-test file
// selects outside the method itself, no interface declares and no
// standard-library interface claims.
func unusedMethods(files []goFile) []string {
	declared := map[string]string{} // "pkg.Type.Method" -> method name
	selected := map[string]bool{}
	for _, fl := range files {
		imports := map[string]bool{}
		for _, spec := range fl.f.Imports {
			ipath, _ := strconv.Unquote(spec.Path.Value)
			local := path.Base(ipath)
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = true
		}
		for _, decl := range fl.f.Decls {
			self := ""
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				self = fn.Name.Name
				if strings.HasPrefix(fl.dir, "internal/") && ast.IsExported(self) {
					key := strings.TrimPrefix(fl.dir, "internal/") + "." + recvTypeName(fn) + "." + self
					declared[key] = self
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] {
						return true // a package-qualified name, not a member
					}
					if n.Sel.Name != self {
						selected[n.Sel.Name] = true
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							selected[name.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	var unused []string
	for key, name := range declared {
		if !selected[name] && !stdlibMethods[name] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	return unused
}

// unusedOf returns, sorted and with prefix trimmed, the declared keys that
// are not used.
func unusedOf(declared, used map[string]bool, prefix string) []string {
	var unused []string
	for key := range declared {
		if !used[key] {
			unused = append(unused, strings.TrimPrefix(key, prefix))
		}
	}
	sort.Strings(unused)
	return unused
}

// declNames returns the package-level names decl declares; a method
// declares none.
func declNames(decl ast.Decl) []string {
	var names []string
	for name := range declSignatures(decl) {
		names = append(names, name)
	}
	return names
}

// declSignatures maps each package-level name decl declares to the parts
// of its declaration a user sees without spelling them: a function's
// parameter and result types, a type's definition, a value's declared
// type (nil when it has none). A method declares no package-level name.
func declSignatures(decl ast.Decl) map[string]ast.Expr {
	sigs := map[string]ast.Expr{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			sigs[d.Name.Name] = d.Type
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				sigs[s.Name.Name] = s.Type
			case *ast.ValueSpec:
				for _, n := range s.Names {
					sigs[n.Name] = s.Type
				}
			}
		}
	}
	return sigs
}

// recvTypeName returns the base type name of a method's receiver.
func recvTypeName(fn *ast.FuncDecl) string {
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
		return id.Name
	}
	return ""
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
		owners[recvTypeName(fn)] = true
	}
	return owners
}
