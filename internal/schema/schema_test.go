package schema

import (
	"errors"
	"strings"
	"testing"
)

func nop(_ Call, _ []any) (any, error) { return nil, nil }

func TestDeclareAndFreeze(t *testing.T) {
	s := New()
	building, err := s.DeclareClass("Building", func() any { return struct{}{} })
	if err != nil {
		t.Fatal(err)
	}
	room, _ := s.DeclareClass("Room", nil)
	// Declaration order does not matter: references are resolved at Freeze.
	if err := building.DeclareMethod("updateTimeOfDay", nop,
		MayCall("Room", "updateTimeOfDay")); err != nil {
		t.Fatalf("DeclareMethod: %v", err)
	}
	if err := room.DeclareMethod("updateTimeOfDay", nop); err != nil {
		t.Fatalf("DeclareMethod: %v", err)
	}
	if err := s.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
}

func buildGameSchema(t *testing.T) *Schema {
	t.Helper()
	s := New()
	building := s.MustDeclareClass("Building", nil)
	room := s.MustDeclareClass("Room", nil)
	player := s.MustDeclareClass("Player", nil)
	item := s.MustDeclareClass("Item", nil)

	item.MustDeclareMethod("get", nop)
	item.MustDeclareMethod("put", nop)
	item.MustDeclareMethod("peek", nop, RO())
	player.MustDeclareMethod("get_gold", nop, MayCall("Item", "get"), MayCall("Item", "put"))
	room.MustDeclareMethod("updateTimeOfDay", nop)
	room.MustDeclareMethod("nr_players", nop, RO(), MayAccess("Player"))
	building.MustDeclareMethod("updateTimeOfDay", nop, MayCall("Room", "updateTimeOfDay"))
	building.MustDeclareMethod("countPlayers", nop, RO(), MayCall("Room", "nr_players"))
	return s
}

func TestFreezeGameSchema(t *testing.T) {
	s := buildGameSchema(t)
	if err := s.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if !s.Frozen() {
		t.Fatal("schema should be frozen")
	}
	// Freezing twice is fine.
	if err := s.Freeze(); err != nil {
		t.Fatalf("second Freeze: %v", err)
	}
}

func TestFrozenRejectsMutation(t *testing.T) {
	s := buildGameSchema(t)
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeclareClass("X", nil); !errors.Is(err, ErrFrozen) {
		t.Fatalf("err = %v; want ErrFrozen", err)
	}
	if err := s.Class("Room").DeclareMethod("x", nop); !errors.Is(err, ErrFrozen) {
		t.Fatalf("err = %v; want ErrFrozen", err)
	}
}

func TestDuplicateDeclarations(t *testing.T) {
	s := New()
	s.MustDeclareClass("A", nil)
	if _, err := s.DeclareClass("A", nil); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v; want ErrDuplicate", err)
	}
	a := s.Class("A")
	a.MustDeclareMethod("m", nop)
	if err := a.DeclareMethod("m", nop); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v; want ErrDuplicate", err)
	}
}

func TestFreezeRejectsUnknownClass(t *testing.T) {
	s := New()
	a := s.MustDeclareClass("A", nil)
	a.MustDeclareMethod("m", nop, MayAccess("Ghost"))
	if err := s.Freeze(); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("err = %v; want ErrUnknownClass", err)
	}
}

func TestFreezeRejectsUnknownMethod(t *testing.T) {
	s := New()
	a := s.MustDeclareClass("A", nil)
	s.MustDeclareClass("B", nil)
	a.MustDeclareMethod("m", nop, MayCall("B", "ghost"))
	if err := s.Freeze(); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("err = %v; want ErrUnknownMethod", err)
	}
}

func TestFreezeRejectsCycle(t *testing.T) {
	s := New()
	a := s.MustDeclareClass("A", nil)
	b := s.MustDeclareClass("B", nil)
	c := s.MustDeclareClass("C", nil)
	a.MustDeclareMethod("m", nop, MayAccess("B"))
	b.MustDeclareMethod("m", nop, MayAccess("C"))
	c.MustDeclareMethod("m", nop, MayAccess("A"))
	err := s.Freeze()
	if !errors.Is(err, ErrOwnershipCycle) {
		t.Fatalf("err = %v; want ErrOwnershipCycle", err)
	}
	// The error message should name the cycle path.
	for _, name := range []string{"A", "B", "C"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("cycle error %q should mention %s", err, name)
		}
	}
}

func TestFreezeAllowsReflexiveAccess(t *testing.T) {
	// Linked lists and trees: a class may access itself (§ 3 exception).
	s := New()
	list := s.MustDeclareClass("ListNode", nil)
	list.MustDeclareMethod("insert", nop, MayAccess("ListNode"))
	if err := s.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
}

func TestFreezeRejectsROCallingEX(t *testing.T) {
	s := New()
	a := s.MustDeclareClass("A", nil)
	b := s.MustDeclareClass("B", nil)
	b.MustDeclareMethod("mutate", nop)
	a.MustDeclareMethod("read", nop, RO(), MayCall("B", "mutate"))
	if err := s.Freeze(); !errors.Is(err, ErrReadOnlyViolation) {
		t.Fatalf("err = %v; want ErrReadOnlyViolation", err)
	}
}

func TestROCallingROIsFine(t *testing.T) {
	s := New()
	a := s.MustDeclareClass("A", nil)
	b := s.MustDeclareClass("B", nil)
	b.MustDeclareMethod("peek", nop, RO())
	a.MustDeclareMethod("read", nop, RO(), MayCall("B", "peek"))
	if err := s.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
}

func TestMayAccess(t *testing.T) {
	s := buildGameSchema(t)
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	m := s.Class("Player").Method("get_gold")
	if !m.MayAccessClass(s.Class("Item")) {
		t.Fatal("Player.get_gold should access Item")
	}
	if m.MayAccessClass(s.Class("Room")) {
		t.Fatal("Player.get_gold must not access Room")
	}
	if !m.MayAccessClass(s.Class("Player")) {
		t.Fatal("reflexive access must be allowed")
	}
	if m.MayAccessClass(nil) || m.MayAccessClass(VirtualContextClass()) {
		t.Fatal("a class outside the schema must not be accessible")
	}
}

func TestClassIntrospection(t *testing.T) {
	s := buildGameSchema(t)
	classes := s.Classes()
	want := []string{"Building", "Item", "Player", "Room"}
	if len(classes) != len(want) {
		t.Fatalf("classes = %v; want %v", classes, want)
	}
	for i := range want {
		if classes[i] != want[i] {
			t.Fatalf("classes = %v; want %v", classes, want)
		}
	}
	room := s.Class("Room")
	if room.Name() != "Room" {
		t.Fatalf("Name = %q", room.Name())
	}
	methods := room.Methods()
	if len(methods) != 2 || methods[0] != "nr_players" || methods[1] != "updateTimeOfDay" {
		t.Fatalf("methods = %v", methods)
	}
	if room.Method("nr_players") == nil || !room.Method("nr_players").ReadOnly {
		t.Fatal("nr_players should be a declared RO method")
	}
	if room.Method("ghost") != nil {
		t.Fatal("unknown method should be nil")
	}
}

func TestNewStateFactory(t *testing.T) {
	type state struct{ N int }
	s := New()
	c := s.MustDeclareClass("A", func() any { return &state{N: 7} })
	noState := s.MustDeclareClass("B", nil)
	st, ok := c.NewState().(*state)
	if !ok || st.N != 7 {
		t.Fatalf("NewState = %#v", c.NewState())
	}
	if noState.NewState() != nil {
		t.Fatal("nil factory should produce nil state")
	}
}
