package chaos

import (
	"maps"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func testShape() Shape {
	return Shape{Nodes: 3, StoreParts: 2, Roots: 3,
		RootServer: func(r int) int { return r + 1 }}
}

// Same seed, same shape ⇒ bit-identical timeline. This is the contract that
// makes a chaos failure reproducible from its seed alone.
func TestScheduleDeterministic(t *testing.T) {
	a := Generate(42, 64, testShape())
	b := Generate(42, 64, testShape())
	if !reflect.DeepEqual(a.Lines(), b.Lines()) {
		t.Fatalf("same seed diverged:\n%v\nvs\n%v", a.Lines(), b.Lines())
	}
	c := Generate(43, 64, testShape())
	if reflect.DeepEqual(a.Lines(), c.Lines()) {
		t.Fatalf("different seeds produced identical schedules")
	}
}

// A long enough schedule injects every fault class, and the early windows
// cycle through all of them before any class repeats.
func TestScheduleCoversAllClasses(t *testing.T) {
	s := Generate(7, 96, testShape())
	classes := s.Classes()
	for _, c := range []string{ClassMesh, ClassKill, ClassStore, ClassMigrate, ClassLag} {
		if classes[c] == 0 {
			t.Fatalf("seed 7 over 96 slots never injected %q: %v", c, classes)
		}
	}
	// Windows are sequential: every inject heals before the next inject.
	open := ""
	for _, a := range s.Actions {
		if a.Heal {
			if open != a.Class {
				t.Fatalf("heal %v without matching open inject (open=%q)", a, open)
			}
			open = ""
		} else {
			if open != "" {
				t.Fatalf("inject %v while %q still open", a, open)
			}
			open = a.Class
		}
	}
	if open != "" {
		t.Fatalf("schedule ends with %q unhealed", open)
	}
}

// Schedule parameters must respect the deployment geometry: victims never
// include node 1, store kills hit each partition's boot primary at most
// once, migrations actually move.
func TestScheduleParameterBounds(t *testing.T) {
	sh := testShape()
	s := Generate(99, 128, sh)
	storeKills := map[int]int{}
	at := placements(s, sh)
	for i, a := range s.Actions {
		if a.Heal {
			continue
		}
		switch a.Class {
		case ClassKill, ClassLag:
			if a.A < 2 || a.A > sh.Nodes {
				t.Fatalf("victim out of range: %v", a)
			}
		case ClassStore:
			storeKills[a.A]++
			if a.B != 0 {
				t.Fatalf("store kill must target the boot primary: %v", a)
			}
		case ClassMigrate:
			if a.B == at[i][a.A] {
				t.Fatalf("migration to the server the group sits on is not a move: %v", a)
			}
			if a.Kind != MigrateBack && a.Kind != MigrateStay {
				t.Fatalf("migration without a heal variant: %v", a)
			}
		case ClassMesh:
			if a.Kind == MeshDrop || a.Kind == MeshPartition {
				if a.A == a.B {
					t.Fatalf("self-link mesh fault: %v", a)
				}
			}
		}
	}
	for p, n := range storeKills {
		if n > 1 {
			t.Fatalf("partition %d primary killed %d times (majority lost)", p, n)
		}
	}
}

// placements replays s's migrations: element i maps each root to the
// server it sits on when action i runs.
func placements(s *Schedule, sh Shape) []map[int]int {
	out := make([]map[int]int, len(s.Actions))
	at, from := map[int]int{}, map[int]int{}
	for r := 0; r < sh.Roots; r++ {
		at[r] = sh.RootServer(r)
	}
	for i, a := range s.Actions {
		out[i] = maps.Clone(at)
		switch {
		case a.Class != ClassMigrate || a.Heal && a.Kind == MigrateStay:
		case a.Heal:
			at[a.A] = from[a.A]
		default:
			from[a.A], at[a.A] = at[a.A], a.B
		}
	}
	return out
}

// killAfterUnhealedMove returns the first kill of s that finds a group
// away from its boot server and hits that group's current or boot host.
func killAfterUnhealedMove(s *Schedule, sh Shape) (Action, bool) {
	at := placements(s, sh)
	for i, a := range s.Actions {
		if a.Class != ClassKill || a.Heal {
			continue
		}
		for r, host := range at[i] {
			if boot := sh.RootServer(r); host != boot && (a.A == host || a.A == boot) {
				return a, true
			}
		}
	}
	return Action{}, false
}

// TestScheduleKillsAfterAnUnhealedMove pins what the soak must reach: at the
// soak's seed, in both scenarios' shapes (iot: a region per server; social:
// four desks per server) and both at its local length and at CI's 30 s, a
// migrate whose heal leaves the group away is followed by a kill of that
// group's current or boot host — the restart that must learn the move from
// the log.
func TestScheduleKillsAfterAnUnhealedMove(t *testing.T) {
	shapes := map[string]Shape{
		"iot":    testShape(),
		"social": {Nodes: 3, StoreParts: 2, Roots: 12, RootServer: func(r int) int { return r/4 + 1 }},
	}
	for name, sh := range shapes {
		for _, slots := range []int{32, 120} {
			s := Generate(soakSeed, slots, sh)
			if _, ok := killAfterUnhealedMove(s, sh); !ok {
				t.Errorf("%s: seed %d over %d slots never kills a moved group's host:\n%s",
					name, soakSeed, slots, strings.Join(s.Lines(), "\n"))
			}
		}
	}
}

// soakSeed drives the soak's schedule and traffic.
const soakSeed = 10

// runSoak drives a short but fault-complete chaos soak for one workload and
// asserts the report is violation-free.
func runSoak(t *testing.T, scenario string) *Report {
	t.Helper()
	// CHAOS_SOAK_SECONDS stretches the soak; CI runs ~30s per workload while
	// a local `go test` stays at the fault-complete 8s minimum.
	dur := 8 * time.Second
	if s := os.Getenv("CHAOS_SOAK_SECONDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			dur = time.Duration(n) * time.Second
		}
	}
	rep, err := Run(Config{
		Scenario: scenario,
		Seed:     soakSeed,
		Duration: dur,
		Log:      func(s string) { t.Log(s) },
	})
	if err != nil {
		t.Fatalf("soak setup: %v", err)
	}
	if rep.OracleDiffs != 0 {
		t.Fatalf("%d oracle diffs before any fault", rep.OracleDiffs)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Acked == 0 {
		t.Fatalf("soak acked nothing (ops=%d failed=%d)", rep.Ops, rep.Failed)
	}
	for _, c := range []string{ClassMesh, ClassKill, ClassStore, ClassMigrate, ClassLag} {
		if rep.Faults[c] == 0 {
			t.Errorf("soak never injected %q: %v", c, rep.Faults)
		}
	}
	t.Logf("%s: ops=%d acked=%d failed=%d ambig=%d avail=%.3f p99=%v checkpoints=%d recovery=%v",
		scenario, rep.Ops, rep.Acked, rep.Failed, rep.Ambiguous,
		rep.Availability, rep.ClientP99, rep.Checkpoints, rep.Recovery)
	return rep
}

func TestChaosSoakIoT(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is seconds-long")
	}
	runSoak(t, "iot")
}

func TestChaosSoakSocial(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is seconds-long")
	}
	runSoak(t, "social")
}
