package chaos

// Seeded fault schedules. A schedule is generated up front from its own
// PRNG — no wall-clock, no runtime state — so the same seed always yields
// the same fault timeline, bit for bit. The runner then walks the slot
// clock and executes each action verbatim, which is what makes a chaos soak
// reproducible: a failure report names the seed, and re-running it replays
// the exact fault sequence against the same workload.
//
// Windows are sequential and non-overlapping (inject at slot s, heal at
// s+hold, next fault after a gap), so each fault finds a fleet recovered
// from the last. Placement does not recover: a migrate heal moves the group
// back only half of the time (the seed picks), so a later kill can find a
// group away from its boot server, which its restart must learn from the log.

import (
	"fmt"
	"math/rand"
)

// Fault classes.
const (
	ClassMesh    = "mesh"
	ClassKill    = "kill"
	ClassStore   = "store"
	ClassMigrate = "migrate"
	ClassLag     = "lag"
)

// Mesh fault variants.
const (
	MeshDrop      = "drop"      // drop one directed node link
	MeshPartition = "partition" // partition a node pair both ways
	MeshDup       = "dup"       // duplicate node→store-replica calls
)

// Migrate variants: what the heal does with the moved group.
const (
	MigrateBack = "back" // move it back to where the inject found it
	MigrateStay = "stay" // leave it on the destination
)

// Action is one scheduled fault transition. Inject and heal of the same
// fault carry identical parameters.
type Action struct {
	Slot  int
	Heal  bool
	Class string
	Kind  string // mesh or migrate variant; empty for other classes
	A     int    // node / partition / root index (class-dependent)
	B     int    // peer node / replica offset / destination server
}

// String renders the canonical timeline line. Determinism checks compare
// these strings, so the format is part of the schedule's contract.
func (a Action) String() string {
	verb := "inject"
	if a.Heal {
		verb = "heal"
	}
	switch a.Class {
	case ClassMesh:
		return fmt.Sprintf("slot=%03d %s mesh/%s a=%d b=%d", a.Slot, verb, a.Kind, a.A, a.B)
	case ClassKill:
		return fmt.Sprintf("slot=%03d %s kill node=%d", a.Slot, verb, a.A)
	case ClassStore:
		return fmt.Sprintf("slot=%03d %s store part=%d replica=%d", a.Slot, verb, a.A, a.B)
	case ClassMigrate:
		return fmt.Sprintf("slot=%03d %s migrate/%s root=%d to=%d", a.Slot, verb, a.Kind, a.A, a.B)
	case ClassLag:
		return fmt.Sprintf("slot=%03d %s lag node=%d", a.Slot, verb, a.A)
	}
	return fmt.Sprintf("slot=%03d %s %s", a.Slot, verb, a.Class)
}

// Shape is the deployment geometry a schedule is generated against. It is
// derived from the topology and scenario before deployment, so generation
// never touches live state.
type Shape struct {
	Nodes      int // node count; victims are picked from 2..Nodes
	StoreParts int // store partitions (0 disables the store class)
	Roots      int // migration-safe group roots (0 disables migrate)
	// RootServer gives the boot server (1-based) of root r, for choosing a
	// migration destination that is actually a move.
	RootServer func(r int) int
}

// Schedule is a pre-generated fault timeline over a fixed slot count.
type Schedule struct {
	Seed    int64
	Slots   int
	Actions []Action
}

// Lines renders the canonical timeline.
func (s *Schedule) Lines() []string {
	out := make([]string, len(s.Actions))
	for i, a := range s.Actions {
		out[i] = a.String()
	}
	return out
}

// Classes reports how many faults of each class the schedule injects.
func (s *Schedule) Classes() map[string]int {
	m := make(map[string]int)
	for _, a := range s.Actions {
		if !a.Heal {
			m[a.Class]++
		}
	}
	return m
}

// Generate builds the deterministic schedule for a seed: the first faults
// cycle through every applicable class in a seed-shuffled order (so even a
// short soak covers all five), then classes are drawn at random until the
// slots run out. Store-replica kills are budgeted to one per partition —
// killing a second replica would cost the partition its majority, which is
// an outage, not a fault the plane is specified to mask.
func Generate(seed int64, slots int, sh Shape) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Seed: seed, Slots: slots}
	if sh.Nodes < 2 {
		return s // nothing to fault: every class needs a peer to disturb
	}

	classes := []string{ClassMesh, ClassKill, ClassMigrate, ClassLag, ClassStore}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	storeBudget := make([]bool, sh.StoreParts)
	storeLeft := sh.StoreParts
	usable := func(class string) bool {
		switch class {
		case ClassKill, ClassLag:
			return sh.Nodes >= 2
		case ClassStore:
			return storeLeft > 0
		case ClassMigrate:
			return sh.Roots > 0 && sh.Nodes >= 2
		}
		return true
	}

	at := make([]int, sh.Roots) // each root's server as the schedule leaves it
	for r := range at {
		at[r] = sh.RootServer(r)
	}
	cursor := 1
	next := 0
	for {
		hold := 2 + rng.Intn(3) // fault active for 2..4 slots
		gap := 1 + rng.Intn(2)  // quiet slots after the heal
		if cursor+hold+1 >= slots {
			break
		}
		var class string
		for {
			if next < len(classes) {
				class = classes[next]
				next++
			} else {
				class = classes[rng.Intn(len(classes))]
			}
			if usable(class) {
				break
			}
		}
		inject := Action{Slot: cursor, Class: class}
		switch class {
		case ClassMesh:
			switch rng.Intn(3) {
			case 0:
				inject.Kind = MeshDrop
				inject.A = 1 + rng.Intn(sh.Nodes)
				inject.B = 1 + rng.Intn(sh.Nodes-1)
				if inject.B >= inject.A {
					inject.B++
				}
			case 1:
				inject.Kind = MeshPartition
				inject.A = 1 + rng.Intn(sh.Nodes)
				inject.B = 1 + rng.Intn(sh.Nodes-1)
				if inject.B >= inject.A {
					inject.B++
				}
				if inject.B < inject.A {
					inject.A, inject.B = inject.B, inject.A
				}
			default:
				inject.Kind = MeshDup
				inject.A = 1 + rng.Intn(sh.Nodes)
				if sh.StoreParts > 0 {
					inject.B = rng.Intn(sh.StoreParts * storeRF)
				}
			}
		case ClassKill, ClassLag:
			inject.A = 2 + rng.Intn(sh.Nodes-1)
		case ClassStore:
			p := rng.Intn(sh.StoreParts)
			for storeBudget[p] {
				p = (p + 1) % sh.StoreParts
			}
			storeBudget[p] = true
			storeLeft--
			inject.A = p
			inject.B = 0 // boot primary; only one kill per partition
		case ClassMigrate:
			r := rng.Intn(sh.Roots)
			dest := 1 + rng.Intn(sh.Nodes-1)
			if dest >= at[r] {
				dest++
			}
			inject.A = r
			inject.B = dest
			inject.Kind = MigrateBack
			if rng.Intn(2) == 0 {
				inject.Kind, at[r] = MigrateStay, dest
			}
		}
		s.Actions = append(s.Actions, inject)
		heal := inject
		heal.Slot = cursor + hold
		heal.Heal = true
		s.Actions = append(s.Actions, heal)
		cursor += hold + gap
	}
	return s
}
