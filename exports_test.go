//go:build !race

// The check reads source, not concurrency, so it does not build under -race.

package ctxsearch

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// callerlessAllowed names the exported functions and methods that may stay
// without a caller outside tests, keyed by types.Func.FullName (or by a
// whole package path), each with its reason. Only these reasons hold: an
// interface method the type checker cannot see being required, a reference
// implementation tests compare against, an input an open ROADMAP item
// names, test infrastructure.
var callerlessAllowed = map[string]string{
	"(*ctxsearch/internal/server.shardCallError).Unwrap":          "interface method: errors.Is/As reach the shard error's cause through it",
	"(*ctxsearch/internal/citegraph.Graph).BibliographicCoupling": "test oracle: prestige/text_ref_test.go scores text prestige against the pairwise form",
	"(*ctxsearch/internal/citegraph.Graph).CoCitation":            "test oracle: prestige/text_ref_test.go, as above",
	"ctxsearch/internal/vector.Centroid":                          "test oracle: cluster/cluster_test.go and contextset/text_ref_test.go hold the term-ID centroid to the map form",
	"ctxsearch/internal/vector.Cosine":                            "test oracle: contextset/text_ref_test.go and prestige/text_ref_test.go, the map-form cosine",
	"(ctxsearch/internal/vector.Sparse).Clone":                    "test oracle: cluster/cluster_test.go's map-form k-means seeds",
	"ctxsearch/internal/eval.NDCGAtK":                             "ROADMAP item 7(a): the served-page metrics cmd/experiments search-level is to call",
	"ctxsearch/internal/eval.MeanAveragePrecision":                "ROADMAP item 7(a), as above",
	"ctxsearch/internal/eval.PrecisionRecallAtK":                  "ROADMAP item 7(a), as above",
	"ctxsearch/internal/corpus.InDegreeHistogram":                 "ROADMAP item 9(a): the exponent fit of the skewed corpus is to call it",
	"(*ctxsearch/internal/prestige.Matrix).Freeze":                "test infrastructure: bench/bench_test.go calls it; deprecated, goes with the ROADMAP 1(e) unpin",
	"(*ctxsearch/internal/contextset.ContextSet).PaperBitset":     "test infrastructure: bench/ref.go is its only caller; deprecated, goes with the ROADMAP 1(e) unpin",
	"ctxsearch/internal/goldentest":                               "test infrastructure: the spine batteries' query and page generator and bitwise comparator, imported only by tests",
	"ctxsearch/internal/docspans":                                 "test infrastructure: the Markdown code-span reader the docs checks share, imported only by tests",
}

// TestExportedFunctionsHaveCallers holds the exported surface to what the
// program uses. It type-checks every non-test file of the module (bench/,
// examples/ and cmd/ count as callers) and fails for each exported function
// or method defined under internal/ or in ctxsearch.go that no non-test file
// references and whose receiver does not need it to implement an
// interface. Resolving references by type, not by name, sees through two
// methods that share a name.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	m := loadModule(t)
	var defined []*ast.Ident
	for path, files := range m.files {
		for _, file := range files {
			if !strings.HasPrefix(path, "ctxsearch/internal/") && !(path == "ctxsearch" && filepath.Base(m.fset.File(file.Pos()).Name()) == "ctxsearch.go") {
				continue
			}
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					defined = append(defined, fd.Name)
				}
			}
		}
	}

	used := map[*types.Func]bool{}
	for _, obj := range m.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	ifaces := interfacesOf(m.pkgs)
	var missing []string
	for _, id := range defined {
		fn := m.info.Defs[id].(*types.Func)
		if used[fn] || implementsWith(fn, ifaces) {
			continue
		}
		if callerlessAllowed[fn.FullName()] != "" || callerlessAllowed[fn.Pkg().Path()] != "" {
			continue
		}
		missing = append(missing, m.fset.Position(id.Pos()).String()+": "+fn.FullName())
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no caller outside tests", m)
	}
}

// module is the type-checked module: every non-test file of every package
// `go list -deps ./...` names, and the standard library those import,
// type-checked from source. tests holds the name of every function (not
// method) a _test.go file of the module declares, and names indexes what
// the docs may name (docs_test.go).
type module struct {
	fset  *token.FileSet
	pkgs  map[string]*types.Package // the module's packages by import path
	files map[string][]*ast.File    // their non-test files by import path
	info  *types.Info
	tests map[string]bool
	names *goNames
}

// loadModule type-checks the module once per test binary; the exported
// surface check and the docs checks share the result.
func loadModule(t *testing.T) *module {
	t.Helper()
	m, err := moduleOnce()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

var moduleOnce = sync.OnceValues(func() (*module, error) {
	out, err := exec.Command("go", "list", "-deps", "-f",
		"{{if not .Standard}}{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}\t{{join .TestGoFiles \" \"}} {{join .XTestGoFiles \" \"}}{{end}}", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	m := &module{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		tests: map[string]bool{},
	}
	// The standard library is type-checked from source; its pure-Go files
	// suffice and need no C toolchain.
	build.Default.CgoEnabled = false
	std := importer.ForCompiler(m.fset, "source", nil)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := m.pkgs[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	// go list -deps orders every package after its imports.
	for _, line := range strings.Split(string(out), "\n") {
		if line == "" {
			continue
		}
		f := strings.Split(line, "\t")
		path, dir := f[0], f[1]
		var files []*ast.File
		for _, name := range strings.Fields(f[2]) {
			file, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, file)
		}
		if m.pkgs[path], err = conf.Check(path, m.fset, files, m.info); err != nil {
			return nil, err
		}
		m.files[path] = files
		for _, name := range strings.Fields(f[3]) {
			file, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					m.tests[fd.Name.Name] = true
				}
			}
		}
	}
	m.names = goNamesOf(m.pkgs)
	return m, nil
})

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// interfacesOf returns error and every non-generic method-set interface
// declared in the packages or anything they import.
func interfacesOf(pkgs map[string]*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	return out
}

// implementsWith reports whether fn is a method its receiver needs to
// implement one of ifaces: the interface has a method of fn's name and the
// receiver's pointer type implements it.
func implementsWith(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	n, ok := rt.(*types.Named)
	if !ok || n.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && types.Implements(types.NewPointer(n), it) {
				return true
			}
		}
	}
	return false
}
