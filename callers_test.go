package lams

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist names the exported names under internal/ that may go
// without a non-test caller, each with the open ROADMAP item that will call
// it. An entry that gains a caller, or whose name is gone, fails the gate, so
// the list cannot outlive its reason.
var callerAllowlist = map[string]string{
	"channel.ImportTwoColumn":      "ROADMAP item 6: E22 replays a published two-column trace",
	"shard.RunStats.Publish":       "ROADMAP item 21: the constellation reports into a registry",
	"lamsdlc.Config.NumberingSize": "ROADMAP item 4: bounded numbering on the wire",
}

// capabilities are the optional engine surfaces of internal/arq/endpoint.go,
// each discovered by type assertion: one with no implementer, or that nothing
// asserts, is dead surface.
var capabilities = []string{
	"Recycler", "SpanReporter", "RateReporter", "CheckpointRetimer",
	"WindowsProvider", "StateCorruptor", "GhostForger", "StabilizationBound",
}

// TestExportedNamesHaveCallers is the caller gate of DESIGN.md §15: every exported
// name under internal/ — function, type, variable, constant, method, interface
// method — has a caller in non-test code of either module (cmd/, examples/,
// the root facade, internal/ itself, benchmarks/). internal/arq/arqtest is
// test code by design: its names need no caller, and its calls count for
// none. Uses are matched by object identity, so two names spelled alike are
// told apart; a method also counts as called when a type whose method set
// holds it, directly or promoted through embedding, satisfies an interface
// that has it.
func TestExportedNamesHaveCallers(t *testing.T) {
	prog := loadProgram(t, ".", "benchmarks")
	rule := gateRule{
		prefix:        "repro/internal/",
		testKit:       "repro/internal/arq/arqtest",
		capabilityPkg: "repro/internal/arq",
		capabilities:  capabilities,
	}
	allowed := map[string]bool{}
	for _, v := range rule.violations(prog) {
		if _, ok := callerAllowlist[v.name]; ok {
			allowed[v.name] = true
			continue
		}
		t.Errorf("%s: %s %s", v.pos, v.name, v.problem)
	}
	for name, item := range callerAllowlist {
		if !allowed[name] {
			t.Errorf("allowlist entry %s (%s) has a caller or no longer exists: delete the entry", name, item)
		}
	}
}

// TestCallerGateRule pins what the gate counts as a caller on a fixture
// module: an unused exported function and a capability no type implements
// fail; a method reached only through an interface, a method reached only
// through embedding (promoted to a caller, or into a type an interface
// accepts) and a test-only caller's target are told apart exactly.
func TestCallerGateRule(t *testing.T) {
	prog := loadProgram(t, filepath.Join("testdata", "callergate"))
	rule := gateRule{
		prefix:        "gatefixture/internal/",
		capabilityPkg: "gatefixture/internal/lib",
		capabilities:  []string{"Closer", "Orphan"},
	}
	var got []string
	for _, v := range rule.violations(prog) {
		got = append(got, v.name+" "+v.problem)
	}
	want := []string{
		"lib.Unused has no non-test caller",
		"lib.TestOnly has no non-test caller",
		"lib.Orphan has no non-test implementer",
		"lib.Orphan is asserted nowhere outside tests",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("gate on the fixture:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestFuzzTargetsInMakefile checks that `make fuzz` runs every fuzz target
// in the repo, and names none that is gone.
func TestFuzzTargetsInMakefile(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`([\w/]+):(Fuzz\w+)`).FindAllStringSubmatch(string(mk), -1) {
		listed[m[1]+":"+m[2]] = true
	}
	found := map[string]bool{}
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			found[filepath.ToSlash(filepath.Dir(path))+":"+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for target := range found {
		if !listed[target] {
			t.Errorf("fuzz target %s is missing from the Makefile's fuzz list", target)
		}
	}
	for target := range listed {
		if !found[target] {
			t.Errorf("the Makefile's fuzz list names %s, which does not exist", target)
		}
	}
	if len(found) == 0 {
		t.Error("no fuzz target found")
	}
}

// checkedPackage is one module package, type-checked from its non-test files.
type checkedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// program is every package of the loaded modules, in dependency order.
type program struct {
	fset *token.FileSet
	root string
	pkgs []*checkedPackage
}

// moduleImporter hands out the module packages already checked and reads
// the standard library from the compiler's export data, which `go list
// -export` leaves in the build cache: type-checking std from source would
// cost the gate seconds.
type moduleImporter struct {
	module map[string]*types.Package
	std    types.Importer
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.module[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// loadProgram type-checks the non-test files of every package in the modules
// rooted at dirs; the first dir's module is the root that positions are
// reported against.
func loadProgram(t *testing.T, dirs ...string) *program {
	t.Helper()
	root, err := filepath.Abs(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	type listed struct {
		ImportPath string
		Dir        string
		GoFiles    []string
		Standard   bool
		Export     string
	}
	var order []listed
	seen := map[string]bool{}
	exports := map[string]string{}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,Export", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p listed
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if p.Standard {
				exports[p.ImportPath] = p.Export
			} else if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				order = append(order, p)
			}
		}
	}

	prog := &program{fset: token.NewFileSet(), root: root}
	im := &moduleImporter{
		module: map[string]*types.Package{},
		std: importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		}),
	}
	conf := types.Config{Importer: im}
	for _, p := range order {
		// Reading the directory records it for the test cache, so a new
		// file in a module package reruns the gate.
		if _, err := os.ReadDir(p.Dir); err != nil {
			t.Fatal(err)
		}
		cp := &checkedPackage{info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(prog.fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			cp.files = append(cp.files, f)
		}
		cp.pkg, err = conf.Check(p.ImportPath, prog.fset, cp.files, cp.info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		im.module[p.ImportPath] = cp.pkg
		prog.pkgs = append(prog.pkgs, cp)
	}
	return prog
}

// gateRule says which packages' exported names need a caller and which
// capability interfaces need an implementer and an assertion. The test kit
// is test code: its names need no caller, and its calls and assertions do
// not count.
type gateRule struct {
	prefix        string
	testKit       string
	capabilityPkg string
	capabilities  []string
}

// violation is one name that fails the gate.
type violation struct {
	pos     string
	name    string
	problem string
}

func (r gateRule) violations(prog *program) []violation {
	used := map[types.Object]bool{}
	asserted := map[types.Type]bool{}
	var named []*types.Named
	ifaces := map[*types.Interface]bool{}
	for _, cp := range prog.pkgs {
		if cp.pkg.Path() == r.testKit {
			continue
		}
		for _, obj := range cp.info.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range cp.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		}
		for _, f := range cp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeAssertExpr:
					if n.Type != nil {
						asserted[cp.info.Types[n.Type].Type] = true
					}
				case *ast.TypeSwitchStmt:
					for _, c := range n.Body.List {
						for _, e := range c.(*ast.CaseClause).List {
							asserted[cp.info.Types[e].Type] = true
						}
					}
				}
				return true
			})
		}
		scope := cp.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	// The standard library calls the methods of its own interfaces
	// (fmt.Stringer, error, sort.Interface) on values handed to it.
	stdSeen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if stdSeen[p] {
			return
		}
		stdSeen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && types.IsInterface(tn.Type()) {
				ifaces[tn.Type().Underlying().(*types.Interface)] = true
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, cp := range prog.pkgs {
		for _, imp := range cp.pkg.Imports() {
			walk(imp)
		}
	}
	// A method is called through an interface when a type whose method set
	// holds it — declared or promoted — satisfies one that has it.
	for it := range ifaces {
		if it.NumMethods() == 0 {
			continue
		}
		for _, n := range named {
			var recv types.Type
			switch {
			case types.Implements(n, it):
				recv = n
			case types.Implements(types.NewPointer(n), it):
				recv = types.NewPointer(n)
			default:
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name()); obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}

	var out []violation
	report := func(obj types.Object, name, problem string) {
		pos := prog.fset.Position(obj.Pos())
		if rel, err := filepath.Rel(prog.root, pos.Filename); err == nil {
			pos.Filename = filepath.ToSlash(rel)
		}
		out = append(out, violation{fmt.Sprintf("%s:%d", pos.Filename, pos.Line), name, problem})
	}
	for _, cp := range prog.pkgs {
		if !strings.HasPrefix(cp.pkg.Path(), r.prefix) || cp.pkg.Path() == r.testKit {
			continue
		}
		// Package-level names, methods and interface methods; not fields,
		// locals or parameters.
		var defs []types.Object
		for _, obj := range cp.info.Defs {
			if _, method := obj.(*types.Func); obj != nil && obj.Exported() && (method || obj.Parent() == cp.pkg.Scope()) {
				defs = append(defs, obj)
			}
		}
		sort.Slice(defs, func(i, j int) bool { return defs[i].Pos() < defs[j].Pos() })
		for _, obj := range defs {
			if !used[obj] {
				report(obj, qualifiedName(obj), "has no non-test caller")
			}
		}
	}

	var capPkg *types.Package
	for _, cp := range prog.pkgs {
		if cp.pkg.Path() == r.capabilityPkg {
			capPkg = cp.pkg
		}
	}
	for _, name := range r.capabilities {
		obj := capPkg.Scope().Lookup(name)
		if obj == nil || !types.IsInterface(obj.Type()) {
			out = append(out, violation{r.capabilityPkg, capPkg.Name() + "." + name, "is not an interface"})
			continue
		}
		it := obj.Type().Underlying().(*types.Interface)
		implemented := false
		for _, n := range named {
			implemented = implemented || types.Implements(n, it) || types.Implements(types.NewPointer(n), it)
		}
		if !implemented {
			report(obj, qualifiedName(obj), "has no non-test implementer")
		}
		isAsserted := false
		for at := range asserted {
			isAsserted = isAsserted || (at != nil && types.Identical(at, obj.Type()))
		}
		if !isAsserted {
			report(obj, qualifiedName(obj), "is asserted nowhere outside tests")
		}
	}
	return out
}

// origin maps an instantiated method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// qualifiedName renders obj as pkg.Name or pkg.Recv.Name.
func qualifiedName(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if n, ok := rt.(*types.Named); ok {
				return obj.Pkg().Name() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}
