// Command knobs runs two censuses of the repository over one
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
// The coverage census lists the functions of the root, cmd/** and
// internal/** packages that the product's own runs never execute. Its
// recipe pools in one GOCOVERDIR the quick suite (deathbench built with
// -cover -coverpkg=repro/..., run with CI's export flags), one bench
// pass (bench built with -coverpkg=repro/internal/...,repro/bench:
// without repro/bench the binary writes no counters; bench's own
// functions are not counted) and the root package's Examples, then
// reads `go tool covdata func` over the pool, matching each line to its
// declaration by file and line (the listing drops a generic method's
// receiver). An unrun function goes, an experiment runs it, or reasons
// says why it stays. A reason for a name another package can use stands
// only if code outside its package uses the name — a test, or product
// code the runs do not reach — directly or through an interface method
// of that name: what only its own package calls should not be exported.
// A product package that no pooled run shows fails the census.
//
// Run from the repository root:
//
//	go run ./scripts/knobs
//
// It prints one row per config struct, then the unrun functions, and
// exits non-zero on a gated (serving-stack) field nothing sets that kept
// does not excuse, an unrun function without a standing reason, a
// product package missing from the pool, or a kept or reasons entry
// that names nothing the census finds.
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
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// pkg is one package's files, parsed and type-checked.
type pkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
	fset  *token.FileSet
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
	files := map[string][]string{}
	for _, name := range tests {
		f, err := parser.ParseFile(l.fset, name, nil, parser.PackageClauseOnly)
		if err != nil {
			return nil, err
		}
		as := path
		if strings.HasSuffix(f.Name.Name, "_test") {
			as += "_test"
		} else if files[as] == nil {
			files[as] = slices.Clone(src)
		}
		files[as] = append(files[as], name)
	}
	var checked []*pkg
	for as, names := range files {
		p, err := l.check(as, names)
		if err != nil {
			return nil, err
		}
		checked = append(checked, p)
	}
	return checked, nil
}

// check parses and type-checks the named files as the package path.
func (l *loader) check(path string, names []string) (*pkg, error) {
	p := &pkg{fset: l.fset, info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
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
// directory (testdata and dot directories skipped). tests holds each
// directory's test files, type-checked against the non-test packages.
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
	return loaded, tests, err
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
	unused := maps.Clone(kept)
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
			delete(unused, o+"."+v.Name())
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
	return failed, slices.Sorted(maps.Keys(unused))
}

// product reports whether the package at path is one the census
// counts: the root, cmd/** or internal/**.
func product(path string) bool {
	return path == "repro" || strings.HasPrefix(path, "repro/cmd/") || strings.HasPrefix(path, "repro/internal/")
}

// funcKey names fn as reasons does: package (a main package by its
// directory), receiver type if any, name.
func funcKey(fn *types.Func) string {
	key := fn.Pkg().Name()
	if key == "main" {
		key = path.Base(fn.Pkg().Path())
	}
	if r := receiver(fn); r != nil {
		key += "." + r.Name()
	}
	return key + "." + fn.Name()
}

// receiver returns the type fn is a method of, nil for a function.
func receiver(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Obj()
}

// coverageCensus reads a `go tool covdata func` listing, prints the
// product functions it shows at 0.0 %, and returns what fails the run:
// hits reasons does not explain, reasons that stand for an exported
// name nothing outside its package uses, reasons entries that name no
// hit, and product packages the listing does not show.
func coverageCensus(w io.Writer, listing string, loaded, tests []*pkg, reasons map[string]string) ([]string, error) {
	// The declarations, by the file and line the listing names them at.
	decls := map[string]*types.Func{}
	packages := map[string]bool{}
	for _, p := range loaded {
		if !product(p.types.Path()) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					pos := p.fset.Position(fd.Pos())
					decls[fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line)] = p.info.Defs[fd.Name].(*types.Func)
					packages[p.types.Path()] = true
				}
			}
		}
	}

	// The hits: "repro/<file>:<line>: <name> <percent>" lines at 0.0 %.
	hits := map[string]*types.Func{}
	for _, line := range strings.Split(listing, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(f[0], "repro/") {
			continue // the total, or a blank line
		}
		file, _, _ := strings.Cut(f[0], ":")
		delete(packages, path.Dir(file))
		if !product(path.Dir(file)) || f[len(f)-1] != "0.0%" {
			continue
		}
		fn := decls[strings.TrimPrefix(strings.TrimSuffix(f[0], ":"), "repro/")]
		if fn == nil {
			return nil, fmt.Errorf("the listing's %s %s is no function of this tree", f[0], f[1])
		}
		hits[funcKey(fn)] = fn
	}

	// The users abroad: every function a file uses from a package in
	// another directory (an external test package's directory is its
	// path less "_test"), and, by name, every interface method a file
	// calls, with the directories it is called from.
	abroad := map[*types.Func]bool{}
	viaIface := map[string][]string{}
	for _, p := range append(loaded, tests...) {
		dir := strings.TrimSuffix(p.types.Path(), "_test")
		for _, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				viaIface[fn.Name()] = append(viaIface[fn.Name()], dir)
			} else if fn.Pkg().Path() != dir {
				abroad[fn.Origin()] = true
			}
		}
	}
	// refused: another package could name fn, yet none does. A method
	// is also named where an interface method of its name is called from
	// another directory, and String and Error are what fmt and errors
	// call.
	refused := func(fn *types.Func) bool {
		r := receiver(fn)
		if !fn.Exported() || r != nil && !r.Exported() || abroad[fn] {
			return false
		}
		return r == nil || fn.Name() != "String" && fn.Name() != "Error" &&
			!slices.ContainsFunc(viaIface[fn.Name()], func(dir string) bool { return dir != fn.Pkg().Path() })
	}

	unused := maps.Clone(reasons)
	var excused, unexplained, untested []string
	for _, h := range slices.Sorted(maps.Keys(hits)) {
		why, ok := reasons[h]
		if !ok {
			unexplained = append(unexplained, h)
			continue
		}
		delete(unused, h)
		excused = append(excused, fmt.Sprintf("unrun: %s — %s", h, why))
		if refused(hits[h]) {
			untested = append(untested, h)
		}
	}
	fmt.Fprintf(w, "coverage census: %d functions the product's runs never execute, %d unexplained\n", len(hits), len(unexplained))
	for _, s := range append(excused, unexplained...) {
		fmt.Fprintln(w, s)
	}
	var fails []string
	if len(unexplained) > 0 {
		fails = append(fails, "functions the product never runs; delete them, run them, or give a reason: "+strings.Join(unexplained, " "))
	}
	if len(untested) > 0 {
		fails = append(fails, "reasons entries for exported names nothing outside their package uses; unexport or delete them: "+strings.Join(untested, " "))
	}
	if len(unused) > 0 {
		fails = append(fails, "reasons entries name no unrun function: "+strings.Join(slices.Sorted(maps.Keys(unused)), " "))
	}
	if len(packages) > 0 {
		fails = append(fails, "product packages in no pooled run: "+strings.Join(slices.Sorted(maps.Keys(packages)), " "))
	}
	return fails, nil
}

// recipe pools the coverage of the product's own runs in a temporary
// GOCOVERDIR and returns `go tool covdata func` over it.
func recipe() (string, error) {
	dir, err := os.MkdirTemp("", "knobs")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	cov := filepath.Join(dir, "cov")
	if err := os.Mkdir(cov, 0o755); err != nil {
		return "", err
	}
	at := func(name string) string { return filepath.Join(dir, name) }
	for _, step := range [][]string{
		{".", "go", "build", "-cover", "-coverpkg=repro/...", "-o", at("deathbench"), "./cmd/deathbench"},
		{"bench", "go", "build", "-cover", "-coverpkg=repro/internal/...,repro/bench", "-o", at("bench"), "."},
		{".", at("deathbench"), "-scale", "quick", "-json", at("bench.json"), "-obs", at("obs.json"),
			"-series", at("series.json"), "-goldenseries", "scripts/series_golden.txt"},
		{".", at("bench"), "-passes", "1", "-seconds", "2"},
		{".", "go", "test", "-run", "^Example", "-cover", "-coverpkg=repro/...", ".", "-args", "-test.gocoverdir=" + cov},
	} {
		cmd := exec.Command(step[1], step[2:]...)
		cmd.Dir, cmd.Env, cmd.Stderr = step[0], append(os.Environ(), "GOCOVERDIR="+cov), os.Stderr
		if err := cmd.Run(); err != nil {
			return "", fmt.Errorf("%s: %w", strings.Join(step[1:], " "), err)
		}
	}
	listing, err := exec.Command("go", "tool", "covdata", "func", "-i="+cov).Output()
	return string(listing), err
}

// run loads the tree under the working directory, prints both censuses
// to w, the coverage census over listing, and returns what fails the
// run.
func run(w io.Writer, listing string, kept, reasons map[string]string) ([]string, error) {
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
	unrun, err := coverageCensus(w, listing, loaded, tests, reasons)
	return append(fails, unrun...), err
}

func main() {
	listing, err := recipe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "knobs: recipe:", err)
		os.Exit(2)
	}
	fails, err := run(os.Stdout, listing, kept, reasons)
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
