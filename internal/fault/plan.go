// Package fault is the deterministic fault-injection engine for the
// metascheduler: it compiles a Plan of timed events — node crashes, node
// recoveries (re-join with fresh vacancy), transient slot revocations (an
// owner reclaiming a booked interval), and batch-wide fault storms — and
// drives them through the gridsim/metasched hooks between scheduling
// iterations. The paper schedules over non-dedicated resources whose owners
// can preempt or withdraw capacity at any moment; this package makes that
// environment dynamics a first-class, seeded, replayable event stream
// instead of a manual one-shot FailNode call.
//
// Everything is deterministic: a Plan is an explicit sorted event list, the
// generators draw only from an explicitly seeded sim.RNG, and the Session
// driver emits a canonical transcript — so the chaos soak can require
// byte-identical behaviour across every test-only oracle engine (dense DP,
// linear scan, vacancy rebuild) and the Audit invariant checker can pin the
// global safety properties after every injected event.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// Kind classifies a fault event.
type Kind int

const (
	// Fail crashes a node: vacancy disappears, live reservations cancel.
	Fail Kind = iota
	// Recover re-joins a failed node with fresh vacancy.
	Recover
	// Revoke reclaims a slot interval for the owner, cancelling only the
	// VO reservations overlapping it.
	Revoke
)

// String names the kind (also the plan-DSL keyword).
func (k Kind) String() string {
	switch k {
	case Fail:
		return "fail"
	case Recover:
		return "recover"
	case Revoke:
		return "revoke"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one timed fault.
type Event struct {
	// At is the injection time: the event fires before the first
	// iteration whose clock has reached it.
	At sim.Time
	// Kind classifies the event.
	Kind Kind
	// Node is the target node label.
	Node string
	// Span is the reclaimed interval; Revoke events only.
	Span sim.Interval
}

// String renders the event in the plan DSL: kind@time:node[:start-end].
func (e Event) String() string {
	if e.Kind == Revoke {
		return fmt.Sprintf("%s@%d:%s:%d-%d", e.Kind, e.At, e.Node, e.Span.Start, e.Span.End)
	}
	return fmt.Sprintf("%s@%d:%s", e.Kind, e.At, e.Node)
}

// Validate checks one event in isolation.
func (e Event) Validate() error {
	if e.At < 0 {
		return fmt.Errorf("fault: event %v at negative time", e)
	}
	if e.Node == "" {
		return fmt.Errorf("fault: event at %v without a node", e.At)
	}
	switch e.Kind {
	case Fail, Recover:
		return nil
	case Revoke:
		if e.Span.Empty() || !e.Span.Valid() {
			return fmt.Errorf("fault: revoke event %v with empty or invalid span", e)
		}
		return nil
	default:
		return fmt.Errorf("fault: unknown event kind %d", int(e.Kind))
	}
}

// Plan is a normalized (time-sorted) fault schedule.
type Plan struct {
	// Events in non-decreasing At order; ties keep construction order, so
	// a storm's simultaneous failures apply in a defined sequence.
	Events []Event
}

// NewPlan builds a plan from events, validating and stable-sorting by time.
func NewPlan(events ...Event) (*Plan, error) {
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return nil, err
		}
	}
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, k int) bool { return sorted[i].At < sorted[k].At })
	return &Plan{Events: sorted}, nil
}

// String renders the plan in the DSL, one entry per event joined by ';'.
// ParsePlan(p.String()) reproduces the plan exactly.
func (p *Plan) String() string {
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// Len returns the number of events.
func (p *Plan) Len() int {
	if p == nil {
		return 0
	}
	return len(p.Events)
}

// Validate checks every event against a node pool: all target labels must
// exist. Parsing alone cannot know the pool; CLI and test drivers call this
// before running a plan.
func (p *Plan) Validate(pool *resource.Pool) error {
	for _, e := range p.Events {
		if pool.ByName(e.Node) == nil {
			return fmt.Errorf("fault: event %v targets unknown node %q", e, e.Node)
		}
	}
	return nil
}

// ParsePlan parses the textual plan DSL:
//
//	fail@300:n3;recover@600:n3;revoke@450:n5:500-700
//
// Entries are separated by ';' (surrounding spaces ignored, empty entries
// skipped); each is kind@time:node, with a :start-end span on revoke
// entries. The result is normalized (time-sorted).
func ParsePlan(s string) (*Plan, error) {
	var events []Event
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		e, err := parseEvent(entry)
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	return NewPlan(events...)
}

func parseEvent(s string) (Event, error) {
	kindStr, rest, ok := strings.Cut(s, "@")
	if !ok {
		return Event{}, fmt.Errorf("fault: entry %q missing '@'", s)
	}
	var kind Kind
	switch kindStr {
	case "fail":
		kind = Fail
	case "recover":
		kind = Recover
	case "revoke":
		kind = Revoke
	default:
		return Event{}, fmt.Errorf("fault: entry %q has unknown kind %q", s, kindStr)
	}
	atStr, rest, ok := strings.Cut(rest, ":")
	if !ok {
		return Event{}, fmt.Errorf("fault: entry %q missing ':node'", s)
	}
	at, err := strconv.ParseInt(atStr, 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("fault: entry %q has bad time: %v", s, err)
	}
	e := Event{At: sim.Time(at), Kind: kind}
	if kind == Revoke {
		node, spanStr, ok := strings.Cut(rest, ":")
		if !ok {
			return Event{}, fmt.Errorf("fault: revoke entry %q missing ':start-end'", s)
		}
		startStr, endStr, ok := strings.Cut(spanStr, "-")
		if !ok {
			return Event{}, fmt.Errorf("fault: revoke entry %q span missing '-'", s)
		}
		start, err := strconv.ParseInt(startStr, 10, 64)
		if err != nil {
			return Event{}, fmt.Errorf("fault: revoke entry %q has bad span start: %v", s, err)
		}
		end, err := strconv.ParseInt(endStr, 10, 64)
		if err != nil {
			return Event{}, fmt.Errorf("fault: revoke entry %q has bad span end: %v", s, err)
		}
		e.Node = node
		e.Span = sim.Interval{Start: sim.Time(start), End: sim.Time(end)}
	} else {
		if strings.Contains(rest, ":") {
			return Event{}, fmt.Errorf("fault: entry %q has a span on a non-revoke event", s)
		}
		e.Node = rest
	}
	if err := e.Validate(); err != nil {
		return Event{}, err
	}
	return e, nil
}

// Storm returns the events of a batch-wide fault storm: ceil(fraction·N)
// distinct seeded-random nodes (always leaving at least one node up) crash
// at the given instant, and — when outage is positive — each recovers
// outage ticks later. Appending the result to other events via NewPlan keeps
// the whole schedule normalized.
func Storm(pool *resource.Pool, at sim.Time, fraction float64, outage sim.Duration, rng *sim.RNG) []Event {
	if fraction <= 0 || pool.Size() == 0 {
		return nil
	}
	if fraction > 1 {
		fraction = 1
	}
	n := (pool.Size()*int(fraction*1000) + 999) / 1000
	if n >= pool.Size() {
		n = pool.Size() - 1
	}
	if n <= 0 {
		return nil
	}
	nodes := pool.Nodes()
	var events []Event
	for _, idx := range rng.Perm(len(nodes))[:n] {
		label := nodes[idx].Label()
		events = append(events, Event{At: at, Kind: Fail, Node: label})
		if outage > 0 {
			events = append(events, Event{At: at.Add(outage), Kind: Recover, Node: label})
		}
	}
	return events
}

// RandomSpec parameterizes RandomPlan.
type RandomSpec struct {
	// Seed drives every random choice.
	Seed uint64
	// Horizon bounds event times to [Step, Horizon).
	Horizon sim.Time
	// Step is the event grid: one potential fault per Step boundary —
	// aligned with a metascheduler session's iteration step, this yields
	// one potential fault per iteration.
	Step sim.Duration
	// Rate is the probability a boundary carries a fault event; 0.05 and
	// 0.20 are the benchmark's "5%" and "20%" fault rates.
	Rate float64
	// RevokeFraction is the share of fault events that are slot
	// revocations rather than node crashes.
	RevokeFraction float64
	// Outage is how long a crashed node stays down before its recovery
	// event; 0 makes crashes permanent.
	Outage sim.Duration
}

// RandomPlan compiles a seeded random fault schedule over the spec's
// horizon. Crashes never take the last live node down, and every crash with
// a positive Outage schedules the matching recovery, so long sessions churn
// instead of draining the pool.
func RandomPlan(pool *resource.Pool, spec RandomSpec) (*Plan, error) {
	if spec.Step <= 0 || spec.Horizon <= 0 {
		return nil, fmt.Errorf("fault: random plan needs positive step and horizon")
	}
	if spec.Rate < 0 || spec.Rate > 1 {
		return nil, fmt.Errorf("fault: random plan rate %v outside [0, 1]", spec.Rate)
	}
	rng := sim.NewRNG(spec.Seed)
	nodes := pool.Nodes()
	down := make(map[string]sim.Time) // label -> recovery time (0 = permanent)
	var events []Event
	for at := sim.Time(0).Add(spec.Step); at < spec.Horizon; at = at.Add(spec.Step) {
		// Apply scheduled recoveries first so the down-set is current.
		for label, until := range down {
			if until > 0 && until <= at {
				delete(down, label)
			}
		}
		if !rng.Bool(spec.Rate) {
			continue
		}
		if rng.Float64() < spec.RevokeFraction {
			// Revoke a random interval on a random live node.
			up := liveNodes(nodes, down)
			if len(up) == 0 {
				continue
			}
			label := up[rng.IntN(len(up))]
			start := at.Add(spec.Step / 2)
			length := spec.Step * sim.Duration(1+rng.IntN(4))
			events = append(events, Event{
				At: at, Kind: Revoke, Node: label,
				Span: sim.Interval{Start: start, End: start.Add(length)},
			})
			continue
		}
		up := liveNodes(nodes, down)
		if len(up) <= 1 {
			continue // never take the last node down
		}
		label := up[rng.IntN(len(up))]
		events = append(events, Event{At: at, Kind: Fail, Node: label})
		if spec.Outage > 0 {
			recovery := at.Add(spec.Outage)
			events = append(events, Event{At: recovery, Kind: Recover, Node: label})
			down[label] = recovery
		} else {
			down[label] = 0
		}
	}
	return NewPlan(events...)
}

// liveNodes returns the labels not currently down, in pool order.
func liveNodes(nodes []*resource.Node, down map[string]sim.Time) []string {
	var up []string
	for _, n := range nodes {
		if _, d := down[n.Label()]; !d {
			up = append(up, n.Label())
		}
	}
	return up
}
