package schema_test

// The method-table test lives outside package schema so that it can load
// every in-tree schema: they are declared by packages that import schema.

import (
	"errors"
	"slices"
	"testing"

	"aeon/internal/game"
	"aeon/internal/node"
	"aeon/internal/schema"
	"aeon/internal/tpcc"
	"aeon/internal/workload"
)

// inTreeSchemas returns every schema a test can import, by name.
func inTreeSchemas(t *testing.T) map[string]*schema.Schema {
	t.Helper()
	out := map[string]*schema.Schema{"bank": node.BankSchema()}
	for _, name := range workload.ScenarioNames() {
		scen, err := workload.NewScenario(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = scen.Schema()
	}
	for name, so := range map[string]bool{"tpcc": false, "tpcc-so": true} {
		s, err := tpcc.Schema(tpcc.DefaultConfig(), so)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = s
	}
	s, err := game.Schema(game.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out["game"] = s
	return out
}

// TestMethodTableResolvesExactly: in every in-tree schema, each declared
// method name resolves to its own Method, and nothing else resolves — not
// the empty name, a name one byte short or one byte long, nor another
// class's method. Methods stays sorted, and redeclaring any name is refused
// as a duplicate.
func TestMethodTableResolvesExactly(t *testing.T) {
	for sname, s := range inTreeSchemas(t) {
		var all []string // every method name of the schema, any class
		for _, cname := range s.Classes() {
			all = append(all, s.Class(cname).Methods()...)
		}
		for _, cname := range s.Classes() {
			c := s.Class(cname)
			names := c.Methods()
			if len(names) == 0 {
				continue
			}
			if !slices.IsSorted(names) {
				t.Fatalf("%s.%s: Methods() = %v, not sorted", sname, cname, names)
			}
			seen := map[*schema.Method]bool{}
			for _, name := range names {
				m := c.Method(name)
				if m == nil || m.Name != name || seen[m] {
					t.Fatalf("%s.%s: Method(%q) = %+v; want its own method", sname, cname, name, m)
				}
				seen[m] = true
			}
			misses := []string{""}
			for _, name := range all {
				misses = append(misses, name[:len(name)-1], name+"x", name)
			}
			for _, miss := range misses {
				if !slices.Contains(names, miss) && c.Method(miss) != nil {
					t.Fatalf("%s.%s: Method(%q) resolved; the class declares no such method", sname, cname, miss)
				}
			}

			// The duplicate check runs on the same table, rebuilt unfrozen.
			fresh := schema.New().MustDeclareClass(cname, nil)
			for _, name := range names {
				fresh.MustDeclareMethod(name, nil)
			}
			for _, name := range names {
				if err := fresh.DeclareMethod(name, nil); !errors.Is(err, schema.ErrDuplicate) {
					t.Fatalf("%s.%s: redeclaring %q: err = %v; want ErrDuplicate", sname, cname, name, err)
				}
			}
		}
	}
}
