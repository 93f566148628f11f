// Command knobs runs two censuses of the repository's surface over one
// type-checked load of the non-test files of both modules (the root and
// bench/), and a second of their test files.
//
// The configuration census: for every exported field of an internal/**
// struct whose name ends in "Config" it counts the setters — keyed
// composite-literal elements (go vet rejects unkeyed ones across
// packages) and field assignments — outside the struct's own package. A
// field nothing sets is a knob nobody has ever turned: it should be a
// constant.
//
// The API census: it lists every exported function and method declared
// in a non-test file of the root package or an internal/** package that
// no non-test file and no root Example function uses. A method also
// counts as called when its receiver satisfies an interface that
// declares it and that the non-test code uses as a type. An API nothing
// calls is code the product does not run: it goes, or reasons says why
// it stays. A reason stands only for a name some test file in another
// package's directory uses: what only the package's own tests call is
// not a harness anyone else needs.
//
// Run from the repository root:
//
//	go run ./scripts/knobs
//
// It prints one row per config struct, then the API census, and exits
// non-zero when a gated struct (the serving stack's) has a never-set
// field that kept does not excuse, when an API entry has no reason or a
// reason no other package's test backs, or when a kept or reasons entry
// no longer names a census hit.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// gated names the structs whose every exported field must have a setter:
// the serving stack's, and the storage engine's, where an assembly
// choice set only by the package's own builders must not come back as a
// field.
var gated = map[string]bool{
	"sched.Config": true, "blockdev.Config": true, "serve.Config": true,
	"serve.AdmissionConfig": true, "serve.BatchConfig": true,
	"place.MoverConfig": true, "ftl.Config": true, "kvstore.Config": true,
}

// kept excuses gated fields that stay exported without an outside
// setter, each with its reason.
var kept = map[string]string{
	"blockdev.Config.Mode":     "callers choose it through blockdev.DefaultConfig(mode)",
	"serve.Config.Progressive": "the paper's progressive assembly as a fabric; only tests build one today (serve's crash/reopen, place's allocation gate)",
}

// reasons excuses API census entries that stay exported without a
// non-test caller, each with its reason.
var reasons = map[string]string{
	"core.ObjectStore.Get":        "reads a nameless object back: E10 only writes objects, and core's and the root package's tests check what Put stored through it",
	"faults.Injector.Fired":       "the fault soaks in faults' and place's tests compare fired schedules across runs (determinism per seed)",
	"faults.RandomPlan":           "the seeded fault soaks in faults' and place's tests draw their plans from it; E22 kills a device by a fixed plan",
	"metrics.Table.Cell":          "the acceptance bars in experiments_test.go read experiment table cells",
	"obs.Registry.JSON":           "TestTelemetryExportGolden hashes the registry's JSON export",
	"obs.Sampler.Ticks":           "TestTelemetryChargesNoVirtualTime checks that a telemetry-on fabric's sampler ticked",
	"place.Placement.CrashDevice": "the crash-resync fault harness place's tests drive; experiments' ledgered crash test runs it under load",
	"serve.Fabric.Crash":          "the whole-fabric crash and re-serve harness serve's tests drive; experiments' ledgered crash test runs it under load",
	"serve.Shard.Retired":         "place's migration test checks that no group still routes to a retired shard",
	"serve.Shard.Slot":            "place's fault soak audits that no region slot has two live owners",
	"sim.Engine.RunUntil":         "bounded runs in the sched and ftl tests",
	"sim.NewWaitGroup":            "joins concurrent simulated clients in the kvstore, place and serve tests",
	"sim.WaitGroup.Done":          "joins concurrent simulated clients in the kvstore, place and serve tests",
	"sim.WaitGroup.Wait":          "joins concurrent simulated clients in the kvstore, place and serve tests",
}

// pkg is one package's files, parsed and type-checked.
type pkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// loader type-checks the repository's packages from source (import path
// "repro/x" is directory ./x, in either module) and the standard
// library through the source importer.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*pkg
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load type-checks the non-test files of the package at path.
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	src, _, err := sources(path)
	if err != nil {
		return nil, err
	}
	p, err := l.check(path, src)
	l.pkgs[path] = p
	return p, err
}

// sources lists the non-test and the test files of the package at path.
func sources(path string) (src, tests []string, err error) {
	names, err := filepath.Glob(filepath.Join("."+strings.TrimPrefix(path, "repro"), "*.go"))
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			tests = append(tests, name)
		} else {
			src = append(src, name)
		}
	}
	return src, tests, err
}

// loadTests type-checks the test files of the package at path against
// the non-test packages: in-package tests with the files they test, an
// external (_test) package on its own.
func (l *loader) loadTests(path string) ([]*pkg, error) {
	src, tests, err := sources(path)
	if err != nil {
		return nil, err
	}
	var in, ext []string
	for _, name := range tests {
		f, err := parser.ParseFile(l.fset, name, nil, parser.PackageClauseOnly)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			ext = append(ext, name)
		} else {
			in = append(in, name)
		}
	}
	var checked []*pkg
	if len(in) > 0 {
		p, err := l.check(path, append(src, in...))
		if err != nil {
			return nil, err
		}
		checked = append(checked, p)
	}
	if len(ext) > 0 {
		p, err := l.check(path+"_test", ext)
		if err != nil {
			return nil, err
		}
		checked = append(checked, p)
	}
	return checked, nil
}

// check parses and type-checks the named files as the package path.
func (l *loader) check(path string, names []string) (*pkg, error) {
	p := &pkg{info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	var err error
	p.types, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info)
	return p, err
}

// loadAll type-checks every package directory under the working
// directory (testdata and dot directories skipped), then the root
// example_test.go, whose Example functions are the library's documented
// callers, when there is one. tests holds each directory's test files,
// type-checked against the non-test packages.
func loadAll() (loaded, tests []*pkg, err error) {
	fset := token.NewFileSet()
	l := &loader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*pkg{}}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if src, _ := filepath.Glob(filepath.Join(path, "*.go")); len(src) == 0 {
			return nil
		}
		path = filepath.ToSlash(filepath.Join("repro", path))
		p, err := l.load(path)
		if err != nil {
			return err
		}
		if len(p.files) > 0 {
			loaded = append(loaded, p)
		}
		t, err := l.loadTests(path)
		tests = append(tests, t...)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := os.Stat("example_test.go"); err == nil {
		p, err := l.check("repro_test", []string{"example_test.go"})
		if err != nil {
			return nil, nil, err
		}
		loaded = append(loaded, p)
	}
	return loaded, tests, nil
}

// knobCensus prints one row per internal/** *Config struct and returns
// the gated fields nothing sets that kept does not excuse, and the kept
// entries that name no such field.
func knobCensus(w io.Writer, loaded []*pkg, kept map[string]string) (failed int, stale []string) {
	// The population: exported fields of internal/** *Config structs,
	// each with its count of outside setters.
	setters := map[*types.Var]int{}
	owner := map[*types.Var]string{}
	var order []*types.Var
	for _, p := range loaded {
		if !strings.HasPrefix(p.types.Path(), "repro/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, isType := scope.Lookup(name).(*types.TypeName)
			if !isType || !tn.Exported() || !strings.HasSuffix(name, "Config") {
				continue
			}
			st, isStruct := tn.Type().Underlying().(*types.Struct)
			for i := 0; isStruct && i < st.NumFields(); i++ {
				if v := st.Field(i); v.Exported() {
					owner[v] = p.types.Name() + "." + name
					order = append(order, v)
				}
			}
		}
	}
	for _, p := range loaded {
		set := func(v *types.Var) {
			if _, census := owner[v]; census && v.Pkg() != p.types {
				setters[v]++
			}
		}
		assigned := func(e ast.Expr) {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					set(s.Obj().(*types.Var))
				}
			}
		}
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						assigned(e)
					}
				case *ast.IncDecStmt:
					assigned(n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if v, ok := p.info.Uses[id].(*types.Var); ok {
							set(v)
						}
					}
				}
				return true
			})
		}
	}

	// The report: one row per struct, then the gated totals.
	count, never := map[string]int{}, map[string][]string{}
	var structs, excused []string
	matched := map[string]bool{}
	total := 0
	for _, v := range order {
		o := owner[v]
		if count[o]++; count[o] == 1 {
			structs = append(structs, o)
		}
		if gated[o] {
			total++
		}
		if setters[v] > 0 {
			continue
		}
		if why, ok := kept[o+"."+v.Name()]; ok {
			matched[o+"."+v.Name()] = true
			excused = append(excused, fmt.Sprintf("kept without a setter: %s.%s — %s", o, v.Name(), why))
			continue
		}
		never[o] = append(never[o], v.Name())
		if gated[o] {
			failed++
		}
	}
	sort.Strings(structs)
	fmt.Fprintf(w, "%-24s %6s %9s  %s\n", "struct", "fields", "never-set", "never-set fields")
	for _, o := range structs {
		mark := " "
		if gated[o] {
			mark = "*"
		}
		fmt.Fprintf(w, "%-24s %6d %9d  %s\n", mark+o, count[o], len(never[o]), strings.Join(never[o], " "))
	}
	fmt.Fprintf(w, "gated (*) structs: %d exported fields, %d never set outside their package\n", total, failed)
	fmt.Fprintln(w, strings.Join(excused, "\n"))
	return failed, unmatched(kept, matched)
}

// apiCensus prints the exported functions and methods of the root and
// internal/** packages that nothing calls, and returns those reasons
// does not explain, those it explains that no test file outside the
// declaring package's directory uses, and the reasons entries that name
// no such function.
func apiCensus(w io.Writer, loaded, tests []*pkg, reasons map[string]string) (unexplained, untested, stale []string) {
	// The callers: every function a non-test file uses, generic ones
	// through their origin, and every interface it uses as a type —
	// a value, a type expression, or a parameter or result of a
	// function it refers to.
	called := map[*types.Func]bool{}
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for _, p := range loaded {
		for _, imp := range p.types.Imports() {
			if imp.Path() == "fmt" { // fmt calls String on what it formats
				addIface(imp.Scope().Lookup("Stringer").Type())
			}
		}
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				called[fn.Origin()] = true
			}
		}
		for _, tv := range p.info.Types {
			addIface(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := range tup.Len() {
						addIface(tup.At(i).Type())
					}
				}
			}
		}
	}
	viaIface := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); !ok || named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj != nil && types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	// The test users: every function a test file uses from a package in
	// another directory (an external test package's directory is its
	// path less "_test").
	tested := map[*types.Func]bool{}
	for _, p := range tests {
		dir := strings.TrimSuffix(p.types.Path(), "_test")
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() != dir {
				tested[fn.Origin()] = true
			}
		}
	}

	// The population: exported package-level functions and exported
	// methods of package-level types.
	hits := map[string]*types.Func{}
	for _, p := range loaded {
		if path := p.types.Path(); path != "repro" && !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !called[obj] {
					hits[p.types.Name()+"."+name] = obj
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				for i := 0; ok && i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() && !called[m] && !viaIface(m) {
						hits[p.types.Name()+"."+name+"."+m.Name()] = m
					}
				}
			}
		}
	}
	names := make([]string, 0, len(hits))
	for h := range hits {
		names = append(names, h)
	}
	sort.Strings(names)
	matched := map[string]bool{}
	var excused []string
	for _, h := range names {
		why, ok := reasons[h]
		if !ok {
			unexplained = append(unexplained, h)
			continue
		}
		matched[h] = true
		excused = append(excused, fmt.Sprintf("kept without a caller: %s — %s", h, why))
		if !tested[hits[h]] {
			untested = append(untested, h)
		}
	}
	fmt.Fprintf(w, "api census: %d exported functions and methods without a non-test caller, %d unexplained\n", len(hits), len(unexplained))
	for _, s := range append(excused, unexplained...) {
		fmt.Fprintln(w, s)
	}
	return unexplained, untested, unmatched(reasons, matched)
}

// unmatched returns the sorted keys of excuses that matched lacks.
func unmatched(excuses map[string]string, matched map[string]bool) []string {
	var stale []string
	for k := range excuses {
		if !matched[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	return stale
}

// run loads the tree under the working directory, prints both censuses
// to w, and returns what fails the run.
func run(w io.Writer, kept, reasons map[string]string) ([]string, error) {
	loaded, tests, err := loadAll()
	if err != nil {
		return nil, err
	}
	var fails []string
	failed, stale := knobCensus(w, loaded, kept)
	if failed > 0 {
		fails = append(fails, "a gated config field has no setter; make it a constant")
	}
	if len(stale) > 0 {
		fails = append(fails, "kept entries name no never-set field: "+strings.Join(stale, " "))
	}
	unexplained, untested, stale := apiCensus(w, loaded, tests, reasons)
	if len(unexplained) > 0 {
		fails = append(fails, "exported API without a non-test caller; delete it or give a reason: "+strings.Join(unexplained, " "))
	}
	if len(untested) > 0 {
		fails = append(fails, "reasons entries no other package's test uses; only their own tests call them: "+strings.Join(untested, " "))
	}
	if len(stale) > 0 {
		fails = append(fails, "reasons entries name no census hit: "+strings.Join(stale, " "))
	}
	return fails, nil
}

func main() {
	fails, err := run(os.Stdout, kept, reasons)
	if err != nil {
		fmt.Fprintln(os.Stderr, "knobs:", err)
		os.Exit(2)
	}
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "knobs: FAILED —", f)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
}
