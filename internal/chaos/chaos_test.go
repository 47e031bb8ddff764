package chaos

import (
	"os"
	"reflect"
	"strconv"
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
	for _, a := range s.Actions {
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
			if a.B == sh.RootServer(a.A) {
				t.Fatalf("migration to its own boot server is not a move: %v", a)
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
		Seed:     11,
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
