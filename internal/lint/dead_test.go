package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// internalPrefix is where the product keeps its packages; what the sweep
// reports is keyed by the path below it ("node.Topology.StoreBackend").
const internalPrefix = rootModule + "/internal/"

// deadKeep is what the sweep would report and the tree keeps on purpose,
// each with why. An entry the sweep no longer reports fails the test as
// stale.
var deadKeep = map[string]string{
	// The paper baselines' oracles: the tests that hold the baselines to the
	// paper's semantics read state and placement through them.
	"game.AEONApp.TotalGold":     "the game test's conservation oracle",
	"game.OrleansApp.Runtime":    "the Orleans game test reads the baseline's deadlock count through it",
	"tpcc.AEONApp.DistrictState": "the TPC-C test's per-district oracle",
	"tpcc.AEONApp.Runtime":       "the TPC-C tests read the AEON app's ownership graph through it",
	"tpcc.OrleansApp.Runtime":    "the Orleans TPC-C test reads the baseline's deadlock count through it",
	"orleans.Runtime.Location":   "the Orleans tests' placement oracle",
	"orleans.Call.Self":          "the Orleans tests' grain-identity oracle",

	// The chaos harness is a test driver: its soak tests are its only
	// callers, and they set its config.
	"chaos.Run":             "the soak's entry point, which the chaos tests drive",
	"chaos.Config.Scenario": "set by the chaos soak tests",
	"chaos.Config.Seed":     "set by the chaos soak tests",
	"chaos.Config.Log":      "set by the chaos soak tests",

	"alloctest.PoolIsLossy":          "shared by the allocation-budget tests of five packages",
	"transport.FaultyMesh.DropReply": "the fault injector's lost-reply mode, which the node fault tests drive",
	"node.Topology.StoreBackend":     "the disk-backed store-plane test's deployment sets it",
	// Deleting them means retiring the log's two op codes they produce.
	"replication.Plane.RemoveEdge":    "the only producer of the edge-removal log op",
	"replication.Plane.RemoveContext": "the only producer of the context-removal log op",
}

// TestNoDeadExports fails on an exported identifier in a non-test file
// under internal/ that no non-test code of the root module or the benchmark
// refers to, and on a field of a Config, Topology or Options struct that no
// non-test code sets. Exempt are the methods of the types the aeon facade
// re-exports and methods an interface asks for (error's and the standard
// library's included): they are called through the interface, or are the
// public surface.
func TestNoDeadExports(t *testing.T) {
	u, err := load()
	if err != nil {
		t.Fatal(err)
	}
	dead := deadExports(u)
	for key, reason := range deadKeep {
		if _, ok := dead[key]; !ok {
			t.Errorf("stale keep entry %s (%s): the sweep no longer reports it; delete the entry", key, reason)
		}
		delete(dead, key)
	}
	var keys []string
	for key := range dead {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		t.Errorf("%s: %s is exported, but nothing outside tests uses it; delete it, or keep it in deadKeep with a reason", dead[key], key)
	}
}

// deadExports returns what the sweep reports, keyed by name, with the
// declaration's position.
func deadExports(u *universe) map[string]string {
	used := map[types.Object]bool{}
	set := map[types.Object]bool{}
	for _, p := range u.pkgs {
		// A method's receiver does not use its type, and a recursive call
		// does not use its function.
		recv := map[*ast.Ident]bool{}
		body := map[types.Object]*ast.FuncDecl{}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				body[p.info.Defs[fn.Name]] = fn
				if fn.Recv != nil {
					ast.Inspect(fn.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
			markSets(p.info, f, set)
		}
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if fn := body[obj]; recv[id] || fn != nil && fn.Pos() <= id.Pos() && id.Pos() < fn.End() {
				continue
			}
			used[obj] = true
		}
	}
	exempt := interfaceMethods(u)
	reexported := map[*types.Named]bool{}
	if root := u.pkg(rootModule); root != nil {
		for _, name := range root.types.Scope().Names() {
			if tn, ok := root.types.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					reexported[n] = true
					// Its methods, promoted ones included.
					ms := types.NewMethodSet(types.NewPointer(n))
					for i := range ms.Len() {
						exempt[origin(ms.At(i).Obj())] = true
					}
				}
			}
		}
	}
	dead := map[string]string{}
	report := func(obj types.Object, key string) {
		dead[strings.TrimPrefix(obj.Pkg().Path(), internalPrefix)+"."+key] = u.rel(obj.Pos())
	}
	for _, p := range u.pkgs {
		if !strings.HasPrefix(p.path, internalPrefix) {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				report(obj, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			for i := range n.NumMethods() {
				if m := n.Method(i); m.Exported() && !used[m] && !exempt[m] {
					report(m, name+"."+m.Name())
				}
			}
			if st, ok := n.Underlying().(*types.Struct); ok && knobStruct(name) && !reexported[n] {
				for i := range st.NumFields() {
					if f := st.Field(i); f.Exported() && !set[f] {
						report(f, name+"."+f.Name())
					}
				}
			}
		}
	}
	return dead
}

// knobStruct reports whether a struct of this name configures something, so
// that a field nothing sets is a knob nobody turns.
func knobStruct(name string) bool {
	return name == "Config" || name == "Topology" || name == "Options"
}

// origin maps a use of an instantiated generic function, method or field to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// markSets records every struct field f's code writes: the target of an
// assignment or increment (and each field on the way to it), an operand of
// &, and a field of a composite literal, keyed or not.
func markSets(info *types.Info, f *ast.File, set map[types.Object]bool) {
	var target func(e ast.Expr)
	target = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			if s := info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
				set[origin(s.Obj())] = true
			}
			target(e.X)
		case *ast.IndexExpr:
			target(e.X)
		case *ast.StarExpr:
			target(e.X)
		case *ast.ParenExpr:
			target(e.X)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				target(l)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		case *ast.CompositeLit:
			st, ok := info.TypeOf(n).Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					set[origin(info.Uses[kv.Key.(*ast.Ident)])] = true
				} else if i < st.NumFields() {
					set[origin(st.Field(i))] = true
				}
			}
		}
		return true
	})
}

// implicit are the interfaces the standard library asks for by a type
// assertion inside a function body, where no export data shows them.
const implicit = `package implicit

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// interfaceMethods returns every method of a named type in the tree that
// some interface visible to the tree asks of that type: for each named type
// and each interface it (or its pointer) implements, the methods the
// interface's method set selects.
func interfaceMethods(u *universe) map[types.Object]bool {
	var ifaces []*types.Interface
	seenPkg := map[*types.Package]bool{}
	addScope := func(s *types.Scope) {
		for _, name := range s.Names() {
			tn, ok := s.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue // uninstantiated: Implements is unspecified
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		addScope(p.Scope())
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	addScope(types.Universe)
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "implicit.go", implicit, 0)
	if err != nil {
		panic(err)
	}
	extra, err := (&types.Config{}).Check("implicit", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	addScope(extra.Scope())
	var named []*types.Named
	for _, p := range u.pkgs {
		walk(p.types)
		// Every interface type the tree spells out, named or literal, at
		// package level or inside a function.
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.NumMethods() > 0 {
					named = append(named, n)
				}
			}
		}
	}
	exempt := map[types.Object]bool{}
	for _, n := range named {
		for _, t := range []types.Type{n, types.NewPointer(n)} {
			ms := types.NewMethodSet(t)
			for _, it := range ifaces {
				if ms.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(t, it) {
					continue
				}
				for i := range it.NumMethods() {
					m := it.Method(i)
					if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
						exempt[origin(sel.Obj())] = true
					}
				}
			}
		}
	}
	return exempt
}

// TestDeadExportArms runs the sweep over a stand-in facade, one internal
// package and a benchmark package, with one case per rule: what it must
// report, and what a use, an interface, the facade or a set exempts.
func TestDeadExportArms(t *testing.T) {
	srcs := []struct{ path, module, src string }{
		{internalPrefix + "x", rootModule, `package x

type Doer interface{ Do() }

type impl struct{}

func (impl) Do()    {} // Doer asks for it
func (impl) Extra() {} // want x.impl.Extra

var _ Doer = impl{}

type E struct{}

func (E) Error() string { return "" } // error asks for it

type Public struct{ n int }

func (Public) Surface() {} // the facade re-exports Public

type onlyReceivers struct{}

func (onlyReceivers) M() {} // want x.onlyReceivers.M

type OnlyReceivers struct{} // want x.OnlyReceivers

func (OnlyReceivers) M() {} // want x.OnlyReceivers.M

func Used() int        { return 0 }
func ByBenchmark() int { return 0 }
func Unused()          {} // want x.Unused

func Recursive(n int) { // want x.Recursive
	if n > 0 {
		Recursive(n - 1)
	}
}

type Inner struct{ X int }

type Config struct {
	Keyed  int
	Addr   int
	Nested Inner
	Read   int // want x.Config.Read
}

func (c Config) read() int { return c.Read }
`},
		{rootModule, rootModule, `package aeon

import "aeon/internal/x"

type Facade = x.Public

func use() int {
	c := x.Config{Keyed: 1}
	p := &c.Addr
	c.Nested.X = *p
	var e error = x.E{}
	_ = e
	return x.Used()
}
`},
		{benchModule, benchModule, `package benchmark

import "aeon/internal/x"

var _ = x.ByBenchmark()
`},
	}
	u := &universe{fset: token.NewFileSet(), root: "."}
	imp := ownImporter{own: map[string]*types.Package{}}
	want := map[string]bool{}
	for _, s := range srcs {
		f, err := parser.ParseFile(u.fset, s.path+".go", s.src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.add(imp, s.path, s.module, []*ast.File{f}); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(s.src, "\n") {
			if _, key, ok := strings.Cut(line, "// want "); ok {
				want[key] = true
			}
		}
	}
	got := deadExports(u)
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s not reported", key)
		}
	}
	for key, at := range got {
		if !want[key] {
			t.Errorf("%s: %s reported, want it exempt", at, key)
		}
	}
}
