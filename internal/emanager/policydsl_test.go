package emanager

import (
	"errors"
	"testing"
	"time"

	"aeon/internal/cluster"
)

func TestCompilePolicyFull(t *testing.T) {
	src := `
# elasticity program
when latency > 10ms add server m1.small
when latency < 2ms remove server
when util > 0.85 rebalance 0.5
when hosted > 40 rebalance 0.25
max servers 32
min servers 4
cooldown 2s
`
	p, err := CompilePolicy(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules()) != 4 {
		t.Fatalf("rules = %v", p.Rules())
	}
	if p.maxServers != 32 || p.minServers != 4 || p.cooldown != 2*time.Second {
		t.Fatalf("limits = %d/%d/%v", p.maxServers, p.minServers, p.cooldown)
	}
}

func TestCompilePolicyErrors(t *testing.T) {
	for _, src := range []string{
		"when latency >",                          // incomplete
		"when pressure > 3 add server m1.small",   // unknown metric
		"when latency >= 3ms add server m1.small", // unknown cmp
		"when latency > 3ms add server t2.nano",   // unknown profile
		"when latency > banana add server m1.small",
		"when util > 0.9 rebalance 2.0", // fraction out of range
		"when util > 0.9 explode",       // unknown action
		"max servers many",
		"cooldown fast",
		"frobnicate",
	} {
		if _, err := CompilePolicy(src); !errors.Is(err, ErrPolicySyntax) {
			t.Errorf("%q: err = %v; want ErrPolicySyntax", src, err)
		}
	}
}

// mustCompile compiles src or fails the test.
func mustCompile(t *testing.T, src string) *DSLPolicy {
	t.Helper()
	p, err := CompilePolicy(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDSLPolicyLatencyScaleOut(t *testing.T) {
	p := mustCompile(t, `
when latency > 10ms add server m1.small
cooldown 1ns
max servers 4
`)
	stats := Stats{
		RecentLatency: 20 * time.Millisecond,
		Servers: []ServerStat{
			{ID: 1, Utilization: 0.9, Hosted: 4},
			{ID: 2, Utilization: 0.2, Hosted: 1},
		},
	}
	actions := p.Decide(stats)
	if len(actions) < 1 {
		t.Fatal("expected a scale-out action")
	}
	add, ok := actions[0].(AddServer)
	if !ok || add.Profile.Name != "m1.small" {
		t.Fatalf("action = %#v", actions[0])
	}
	// The hottest server sheds load to the newcomer.
	if len(actions) == 2 {
		rb, ok := actions[1].(Rebalance)
		if !ok || rb.Server != 1 {
			t.Fatalf("second action = %#v", actions[1])
		}
	}
}

func TestDSLPolicyMaxServersCap(t *testing.T) {
	p := mustCompile(t, "when latency > 1ms add server m1.small\nmax servers 2\ncooldown 1ns")
	stats := Stats{
		RecentLatency: time.Second,
		Servers:       []ServerStat{{ID: 1}, {ID: 2}},
	}
	if actions := p.Decide(stats); len(actions) != 0 {
		t.Fatalf("actions = %v; want none at cap", actions)
	}
}

func TestDSLPolicyScaleInFloor(t *testing.T) {
	p := mustCompile(t, "when latency < 5ms remove server\nmin servers 2\ncooldown 1ns")
	stats := Stats{
		RecentLatency: time.Millisecond,
		Servers:       []ServerStat{{ID: 1, Hosted: 3}, {ID: 2, Hosted: 0}, {ID: 3, Hosted: 2}},
	}
	actions := p.Decide(stats)
	if len(actions) != 1 {
		t.Fatalf("actions = %v", actions)
	}
	rm, ok := actions[0].(RemoveServer)
	if !ok || rm.Server != 2 {
		t.Fatalf("action = %#v; want RemoveServer{2} (emptiest)", actions[0])
	}
	// At the floor: no action.
	p2 := mustCompile(t, "when latency < 5ms remove server\nmin servers 2\ncooldown 1ns")
	atFloor := Stats{RecentLatency: time.Millisecond, Servers: []ServerStat{{ID: 1}, {ID: 2}}}
	if actions := p2.Decide(atFloor); len(actions) != 0 {
		t.Fatalf("actions = %v; want none at floor", actions)
	}
}

func TestDSLPolicyUtilAndHostedRules(t *testing.T) {
	p := mustCompile(t, `
when util > 0.8 rebalance 0.5
when hosted > 10 rebalance 0.25
cooldown 1ns
`)
	// Util rule fires for the hot server only.
	actions := p.Decide(Stats{Servers: []ServerStat{
		{ID: 1, Utilization: 0.95, Hosted: 5},
		{ID: 2, Utilization: 0.1, Hosted: 5},
	}})
	if len(actions) != 1 {
		t.Fatalf("actions = %v", actions)
	}
	if rb := actions[0].(Rebalance); rb.Server != 1 || rb.Fraction != 0.5 {
		t.Fatalf("action = %#v", actions[0])
	}
	// Hosted rule fires when util rule does not.
	p2 := mustCompile(t, "when hosted > 10 rebalance 0.25\ncooldown 1ns")
	actions = p2.Decide(Stats{Servers: []ServerStat{{ID: 3, Hosted: 12}}})
	if len(actions) != 1 || actions[0].(Rebalance).Server != 3 {
		t.Fatalf("actions = %v", actions)
	}
}

func TestDSLPolicyCooldown(t *testing.T) {
	p := mustCompile(t, "when latency > 1ms add server m1.small\ncooldown 1h")
	stats := Stats{RecentLatency: time.Second, Servers: []ServerStat{{ID: 1}}}
	if actions := p.Decide(stats); len(actions) == 0 {
		t.Fatal("first decision should fire")
	}
	if actions := p.Decide(stats); len(actions) != 0 {
		t.Fatalf("actions = %v; want none during cooldown", actions)
	}
}

func TestDSLPolicyDrivesManager(t *testing.T) {
	f := newFixture(t, 1, 2)
	f.mgr.AddPolicy(mustCompile(t, `
when latency > 1ns add server m1.small
max servers 2
cooldown 1ns
`))
	// Give the EWMA a sample so latency > 0.
	if _, err := f.rt.Submit(f.rooms[0], "inc"); err != nil {
		t.Fatal(err)
	}
	f.mgr.Evaluate()
	if n := f.rt.Cluster().Size(); n != 2 {
		t.Fatalf("cluster size = %d; want 2", n)
	}
	if _, err := profileByName("m1.large"); err != nil {
		t.Fatal(err)
	}
	if _, err := profileByName("m3.large"); err != nil {
		t.Fatal(err)
	}
	_ = cluster.M1Medium
}
