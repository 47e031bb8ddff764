package emanager

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"aeon/internal/cluster"
)

// This file implements the "fine-grained elasticity policy language" the
// paper lists as future work (§ 8: "define a fine-grained elasticity policy
// language to allow the programmer control over the locality of contexts
// and usage of resources").
//
// The language is line-oriented; each line is one rule:
//
//	when latency > 10ms add server m1.small
//	when latency > 25ms add server m1.large
//	when latency < 2ms remove server
//	when util > 0.85 rebalance 0.5
//	when hosted > 40 rebalance 0.25
//	max servers 32
//	min servers 4
//	cooldown 2s
//
// Conditions reference the manager's telemetry: `latency` (the runtime's
// recent event latency), `util` (any server's utilization), and `hosted`
// (any server's context count). `util`/`hosted` rules act on the servers
// that match; `latency` rules act cluster-wide. Comments start with '#'.

// ErrPolicySyntax is returned for unparseable policy sources.
var ErrPolicySyntax = errors.New("emanager: policy syntax error")

type dslMetric int

const (
	metricLatency dslMetric = iota + 1
	metricUtil
	metricHosted
)

type dslCmp int

const (
	cmpGT dslCmp = iota + 1
	cmpLT
)

type dslActionKind int

const (
	actAddServer dslActionKind = iota + 1
	actRemoveServer
	actRebalance
)

type dslRule struct {
	metric    dslMetric
	cmp       dslCmp
	threshold float64 // latency in seconds, util fraction, hosted count
	action    dslActionKind
	profile   cluster.Profile
	fraction  float64
	line      string
}

// DSLPolicy is a compiled policy program; it implements Policy.
type DSLPolicy struct {
	rules      []dslRule
	maxServers int
	minServers int
	cooldown   time.Duration
	lastAction time.Time
}

var _ Policy = (*DSLPolicy)(nil)

// CompilePolicy parses a policy program into a DSLPolicy.
func CompilePolicy(src string) (*DSLPolicy, error) {
	p := &DSLPolicy{minServers: 1, cooldown: time.Second}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := p.compileLine(line); err != nil {
			return nil, fmt.Errorf("line %d %q: %w", lineNo+1, line, err)
		}
	}
	return p, nil
}

func (p *DSLPolicy) compileLine(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "when":
		return p.compileWhen(fields[1:], line)
	case "max":
		if len(fields) != 3 || fields[1] != "servers" {
			return fmt.Errorf("want 'max servers N': %w", ErrPolicySyntax)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 1 {
			return fmt.Errorf("bad server count %q: %w", fields[2], ErrPolicySyntax)
		}
		p.maxServers = n
		return nil
	case "min":
		if len(fields) != 3 || fields[1] != "servers" {
			return fmt.Errorf("want 'min servers N': %w", ErrPolicySyntax)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 1 {
			return fmt.Errorf("bad server count %q: %w", fields[2], ErrPolicySyntax)
		}
		p.minServers = n
		return nil
	case "cooldown":
		if len(fields) != 2 {
			return fmt.Errorf("want 'cooldown D': %w", ErrPolicySyntax)
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", fields[1], ErrPolicySyntax)
		}
		p.cooldown = d
		return nil
	default:
		return fmt.Errorf("unknown statement %q: %w", fields[0], ErrPolicySyntax)
	}
}

func (p *DSLPolicy) compileWhen(fields []string, line string) error {
	// <metric> <cmp> <value> <action...>
	if len(fields) < 4 {
		return fmt.Errorf("incomplete rule: %w", ErrPolicySyntax)
	}
	var rule dslRule
	rule.line = line
	switch fields[0] {
	case "latency":
		rule.metric = metricLatency
	case "util":
		rule.metric = metricUtil
	case "hosted":
		rule.metric = metricHosted
	default:
		return fmt.Errorf("unknown metric %q: %w", fields[0], ErrPolicySyntax)
	}
	switch fields[1] {
	case ">":
		rule.cmp = cmpGT
	case "<":
		rule.cmp = cmpLT
	default:
		return fmt.Errorf("unknown comparison %q: %w", fields[1], ErrPolicySyntax)
	}
	switch rule.metric {
	case metricLatency:
		d, err := time.ParseDuration(fields[2])
		if err != nil {
			return fmt.Errorf("bad latency %q: %w", fields[2], ErrPolicySyntax)
		}
		rule.threshold = d.Seconds()
	default:
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return fmt.Errorf("bad threshold %q: %w", fields[2], ErrPolicySyntax)
		}
		rule.threshold = v
	}

	action := fields[3:]
	switch action[0] {
	case "add":
		if len(action) != 3 || action[1] != "server" {
			return fmt.Errorf("want 'add server PROFILE': %w", ErrPolicySyntax)
		}
		profile, err := profileByName(action[2])
		if err != nil {
			return err
		}
		rule.action = actAddServer
		rule.profile = profile
	case "remove":
		if len(action) != 2 || action[1] != "server" {
			return fmt.Errorf("want 'remove server': %w", ErrPolicySyntax)
		}
		rule.action = actRemoveServer
	case "rebalance":
		if len(action) != 2 {
			return fmt.Errorf("want 'rebalance FRACTION': %w", ErrPolicySyntax)
		}
		f, err := strconv.ParseFloat(action[1], 64)
		if err != nil || f <= 0 || f > 1 {
			return fmt.Errorf("bad fraction %q: %w", action[1], ErrPolicySyntax)
		}
		rule.action = actRebalance
		rule.fraction = f
	default:
		return fmt.Errorf("unknown action %q: %w", action[0], ErrPolicySyntax)
	}
	p.rules = append(p.rules, rule)
	return nil
}

func profileByName(name string) (cluster.Profile, error) {
	switch name {
	case "m3.large":
		return cluster.M3Large, nil
	case "m1.large":
		return cluster.M1Large, nil
	case "m1.medium":
		return cluster.M1Medium, nil
	case "m1.small":
		return cluster.M1Small, nil
	default:
		return cluster.Profile{}, fmt.Errorf("unknown profile %q: %w", name, ErrPolicySyntax)
	}
}

// Rules returns the source lines of the compiled rules (introspection).
func (p *DSLPolicy) Rules() []string {
	out := make([]string, len(p.rules))
	for i, r := range p.rules {
		out[i] = r.line
	}
	return out
}

func (r dslRule) holds(value float64) bool {
	if r.cmp == cmpGT {
		return value > r.threshold
	}
	return value < r.threshold
}

// Decide implements Policy: the first firing rule wins per round.
func (p *DSLPolicy) Decide(s Stats) []Action {
	if time.Since(p.lastAction) < p.cooldown {
		return nil
	}
	for _, r := range p.rules {
		var actions []Action
		switch r.metric {
		case metricLatency:
			if s.RecentLatency > 0 && r.holds(s.RecentLatency.Seconds()) {
				actions = p.clusterAction(r, s)
			}
		case metricUtil:
			for _, srv := range s.Servers {
				if r.holds(srv.Utilization) {
					actions = append(actions, p.serverAction(r, srv, s)...)
				}
			}
		case metricHosted:
			for _, srv := range s.Servers {
				if r.holds(float64(srv.Hosted)) {
					actions = append(actions, p.serverAction(r, srv, s)...)
				}
			}
		}
		if len(actions) > 0 {
			p.lastAction = time.Now()
			return actions
		}
	}
	return nil
}

func (p *DSLPolicy) clusterAction(r dslRule, s Stats) []Action {
	switch r.action {
	case actAddServer:
		if p.maxServers > 0 && len(s.Servers) >= p.maxServers {
			return nil
		}
		actions := []Action{AddServer{Profile: r.profile}}
		if hot := hottest(s.Servers); hot != nil && hot.Hosted > 1 {
			actions = append(actions, Rebalance{Server: hot.ID, Fraction: 0.5})
		}
		return actions
	case actRemoveServer:
		if len(s.Servers) <= p.minServers {
			return nil
		}
		if idle := emptiest(s.Servers); idle != nil {
			return []Action{RemoveServer{Server: idle.ID}}
		}
	case actRebalance:
		if hot := hottest(s.Servers); hot != nil && hot.Hosted > 0 {
			return []Action{Rebalance{Server: hot.ID, Fraction: r.fraction}}
		}
	}
	return nil
}

func (p *DSLPolicy) serverAction(r dslRule, srv ServerStat, s Stats) []Action {
	switch r.action {
	case actAddServer:
		if p.maxServers > 0 && len(s.Servers) >= p.maxServers {
			return nil
		}
		return []Action{AddServer{Profile: r.profile}, Rebalance{Server: srv.ID, Fraction: 0.5}}
	case actRemoveServer:
		if len(s.Servers) <= p.minServers {
			return nil
		}
		return []Action{RemoveServer{Server: srv.ID}}
	case actRebalance:
		if srv.Hosted == 0 {
			return nil
		}
		return []Action{Rebalance{Server: srv.ID, Fraction: r.fraction}}
	}
	return nil
}
