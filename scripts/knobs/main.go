// Command knobs is the configuration census. For every exported field
// of an internal/** struct whose name ends in "Config" it counts the
// setters — keyed composite-literal elements (go vet rejects unkeyed
// ones across packages) and field assignments — outside the struct's
// own package, in the non-test files of both modules (the
// root and bench/). A field nothing sets is a knob nobody has ever
// turned: it should be a constant. Run from the repository root:
//
//	go run ./scripts/knobs
//
// It prints one row per struct and exits non-zero when a gated struct
// (the serving stack's) has a never-set field that kept does not excuse.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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

// pkg is one directory's non-test files, parsed and type-checked.
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

func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	names, err := filepath.Glob(filepath.Join("."+strings.TrimPrefix(path, "repro"), "*.go"))
	if err != nil {
		return nil, err
	}
	p := &pkg{info: &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.types, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info)
	l.pkgs[path] = p
	return p, err
}

func main() {
	fset := token.NewFileSet()
	l := &loader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*pkg{}}
	var loaded []*pkg
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if src, _ := filepath.Glob(filepath.Join(path, "*.go")); len(src) == 0 {
			return nil
		}
		p, err := l.load(filepath.ToSlash(filepath.Join("repro", path)))
		if err == nil && len(p.files) > 0 {
			loaded = append(loaded, p)
		}
		return err
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "knobs:", err)
		os.Exit(2)
	}

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
	total, failed := 0, 0
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
			excused = append(excused, fmt.Sprintf("kept without a setter: %s.%s — %s", o, v.Name(), why))
			continue
		}
		never[o] = append(never[o], v.Name())
		if gated[o] {
			failed++
		}
	}
	sort.Strings(structs)
	fmt.Printf("%-24s %6s %9s  %s\n", "struct", "fields", "never-set", "never-set fields")
	for _, o := range structs {
		mark := " "
		if gated[o] {
			mark = "*"
		}
		fmt.Printf("%-24s %6d %9d  %s\n", mark+o, count[o], len(never[o]), strings.Join(never[o], " "))
	}
	fmt.Printf("gated (*) structs: %d exported fields, %d never set outside their package\n", total, failed)
	fmt.Println(strings.Join(excused, "\n"))
	if failed > 0 {
		fmt.Fprintln(os.Stderr, "knobs: FAILED — a gated config field has no setter; make it a constant")
		os.Exit(1)
	}
}
