package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// valuePath is the package that declares Value.
const valuePath = "aeon/internal/schema"

// TestNoValueAsInterface fails on every implicit or explicit conversion of a
// schema.Value to an interface type in the root module's non-test code.
// Inside the product arguments and results are Values, and a sub-call takes
// them as they are (Sync's `...Value`), but the `any` edges remain: a Value
// stored in an `any` field (a wire struct's Result or Args) is encoded as an
// unregistered gob blob, and one passed to an `...any` API (Submit, Of)
// reaches the handler boxed in a second box, where args[i].Int() panics. A
// Value becomes an `any` through Value.Any, which is a call, not a
// conversion.
func TestNoValueAsInterface(t *testing.T) {
	u, err := load()
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range valueConversions(u) {
		t.Errorf("%s: a schema.Value converted to an interface; pass v.Any() or keep the Value", site)
	}
}

// valueConversions returns, sorted, the position and enclosing function of
// each place the root module's non-test code converts a schema.Value to an
// interface type.
func valueConversions(u *universe) []string {
	var found []string
	for _, p := range u.pkgs {
		if p.module != rootModule {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				for _, pos := range valueToInterface(p.info, fn) {
					at := u.fset.Position(pos)
					found = append(found, fmt.Sprintf("%s:%d (%s)", u.rel(pos), at.Column, funcName(fn)))
				}
			}
		}
	}
	sort.Strings(found)
	return found
}

// isValue reports whether t is schema.Value.
func isValue(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == valuePath && n.Obj().Name() == "Value"
}

// valueToInterface returns the position of every expression in fn's body
// whose value is a schema.Value and whose destination is of interface type:
// an argument (a variadic ...any included), an operand of a conversion, the
// right side of an assignment or declaration, a returned result, an element
// or field of a composite literal, a sent value and a map key.
func valueToInterface(info *types.Info, fn *ast.FuncDecl) []token.Pos {
	var found []token.Pos
	flag := func(at ast.Expr, src, dst types.Type) {
		if dst != nil && types.IsInterface(dst) && isValue(src) {
			found = append(found, at.Pos())
		}
	}
	into := func(e ast.Expr, dst types.Type) { flag(e, info.TypeOf(e), dst) }
	// pair matches values against destinations: one to one, or a single
	// multi-valued call against several destinations.
	pair := func(values []ast.Expr, dsts []types.Type) {
		if len(values) == 1 && len(dsts) > 1 {
			if tup, ok := info.TypeOf(values[0]).(*types.Tuple); ok {
				for i := range min(tup.Len(), len(dsts)) {
					flag(values[0], tup.At(i).Type(), dsts[i])
				}
				return
			}
		}
		for i, v := range values[:min(len(values), len(dsts))] {
			into(v, dsts[i])
		}
	}
	var walk func(body *ast.BlockStmt, sig *types.Signature)
	walk = func(body *ast.BlockStmt, sig *types.Signature) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				walk(n.Body, info.TypeOf(n).(*types.Signature))
				return false
			case *ast.CallExpr:
				tv := info.Types[n.Fun]
				if tv.IsType() {
					if len(n.Args) == 1 {
						into(n.Args[0], tv.Type)
					}
					break
				}
				if tv.Type == nil {
					break
				}
				sig, ok := tv.Type.Underlying().(*types.Signature)
				if !ok {
					break
				}
				nargs := len(n.Args)
				if nargs == 1 {
					if tup, ok := info.TypeOf(n.Args[0]).(*types.Tuple); ok {
						nargs = tup.Len()
					}
				}
				params := sig.Params()
				dsts := make([]types.Type, nargs)
				for i := range dsts {
					switch {
					case sig.Variadic() && i >= params.Len()-1 && !n.Ellipsis.IsValid():
						dsts[i] = params.At(params.Len() - 1).Type().Underlying().(*types.Slice).Elem()
					case i < params.Len():
						dsts[i] = params.At(i).Type()
					}
				}
				pair(n.Args, dsts)
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					dsts := make([]types.Type, len(n.Lhs))
					for i, l := range n.Lhs {
						dsts[i] = info.TypeOf(l)
					}
					pair(n.Rhs, dsts)
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					dsts := make([]types.Type, len(n.Names))
					for i := range dsts {
						dsts[i] = info.TypeOf(n.Type)
					}
					pair(n.Values, dsts)
				}
			case *ast.ReturnStmt:
				dsts := make([]types.Type, sig.Results().Len())
				for i := range dsts {
					dsts[i] = sig.Results().At(i).Type()
				}
				pair(n.Results, dsts)
			case *ast.CompositeLit:
				switch t := info.TypeOf(n).Underlying().(type) {
				case *types.Struct:
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							into(kv.Value, info.TypeOf(kv.Key))
						} else if i < t.NumFields() {
							into(el, t.Field(i).Type())
						}
					}
				case *types.Slice, *types.Array, *types.Map:
					elem := t.(interface{ Elem() types.Type }).Elem()
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if m, ok := t.(*types.Map); ok {
								into(kv.Key, m.Key())
							}
							el = kv.Value
						}
						into(el, elem)
					}
				}
			case *ast.SendStmt:
				if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
					into(n.Value, ch.Elem())
				}
			case *ast.IndexExpr:
				if m, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
					into(n.Index, m.Key())
				}
			}
			return true
		})
	}
	walk(fn.Body, info.Defs[fn.Name].Type().(*types.Signature))
	return found
}

// TestValueToInterfaceArms runs the walker over a stand-in schema package
// with a conversion per arm, and none where a Value stays a Value. Each line
// that converts ends in "// want", or "// want n" for n conversions, and the
// walker must report exactly that many on exactly those lines.
func TestValueToInterfaceArms(t *testing.T) {
	const src = `package schema

type Value struct{ n int }

type outcome struct {
	Result any
	Host   int
}

func sink(args ...any)      {}
func one(a any, n int)      {}
func pre(a any, rest ...any) {}
func two() (Value, error)   { return Value{}, nil }
func keep(v Value) Value    { return v }

func arms(v Value, ch chan any, m map[any]int) (any, error) {
	var w Value = keep(v)
	x := w
	sink(v, x) // want 2
	sink([]any{v}...) // want
	one(v, x.n) // want
	pre(v) // want
	sink(two()) // want
	_ = any(v) // want
	var a any = v // want
	a = w // want
	o := outcome{Result: v} // want
	o = outcome{v, 1} // want
	_ = map[any]any{v: v} // want 2
	ch <- v // want
	_ = m[v] // want
	args := append([]any(nil), v) // want
	f := func() any { return v } // want
	_, _, _, _ = a, o, args, f
	return two() // want
}
`
	want := map[int]int{}
	for i, line := range strings.Split(src, "\n") {
		if _, mark, ok := strings.Cut(line, "// want"); ok {
			n := 1
			if mark != "" {
				if _, err := fmt.Sscan(mark, &n); err != nil {
					t.Fatalf("line %d: bad marker %q", i+1, mark)
				}
			}
			want[i+1] = n
		}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "arms.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{}).Check(valuePath, fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	got := map[int]int{}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok {
			for _, pos := range valueToInterface(info, fn) {
				got[fset.Position(pos).Line]++
			}
		}
	}
	for line, n := range want {
		if got[line] != n {
			t.Errorf("arms.go:%d: found %d conversions, want %d", line, got[line], n)
		}
	}
	for line, n := range got {
		if want[line] == 0 {
			t.Errorf("arms.go:%d: found %d conversions, want none", line, n)
		}
	}
}
