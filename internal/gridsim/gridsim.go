// Package gridsim models the distributed environment the metascheduler
// schedules against: administrative domains of heterogeneous nodes whose
// owners run local (internal) tasks alongside the VO's global job flow.
// Local resource managers publish their occupancy as an ordered list of
// vacant slots — the input of the co-allocation algorithms — and accept
// reservations for the windows the metascheduler commits.
//
// The paper's evaluation generates slot lists directly (internal/workload);
// gridsim is the end-to-end substrate behind the Section 4 example and the
// multi-iteration metascheduler example, exercising the same search and
// optimization code paths against a real occupancy model.
package gridsim

import (
	"fmt"
	"sort"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// Task is a booked occupancy interval on one node: either an owner-local job
// (p1..p7 in the Section 4 example) or a committed VO reservation.
type Task struct {
	Name  string
	Node  resource.NodeID
	Span  sim.Interval
	Local bool // true for owner-local tasks, false for VO reservations
	// Cost is the usage fee paid to the owner for a VO reservation
	// (price per tick at commit time × runtime); zero for local tasks.
	Cost sim.Money
	// charged is the amount actually credited to the owner's income ledger
	// for this booking. Commit sets it equal to Cost; a task booked
	// directly through Book was never charged, so cancellation paths
	// refund charged — not Cost — and a domain's income can never go
	// negative from refunding fees it never received.
	charged sim.Money
}

// Grid is the mutable environment state: a node pool plus per-node booked
// intervals.
type Grid struct {
	pool *resource.Pool
	// booked holds, per node, the sorted non-overlapping busy intervals.
	booked map[resource.NodeID][]Task
	now    sim.Time
	// failed records nodes that stopped serving, with the failure time.
	failed map[resource.NodeID]sim.Time
	// income is the persistent per-domain ledger of reservation fees:
	// credited on commit, refunded on cancellation; unaffected by the
	// clock advancing past completed bookings.
	income map[string]sim.Money
	// metrics, when non-nil, observes environment churn (see SetMetrics).
	metrics *Metrics
	// stores holds the live vacant-slot stores (see store.go), one per
	// shard under SetSharding — stores[i] covers the nodes assigned to
	// shard i, and an unsharded grid has a single store. Lazily built by
	// the first publication and maintained in place by every mutation; nil
	// until then or when rebuildVacant forces the oracle path. An
	// individual entry goes nil while that shard self-heals.
	stores []*vacantStore
	// shardCount and shardOf define the node partition (SetSharding);
	// shardCount <= 1 means unsharded.
	shardCount int
	shardOf    func(*resource.Node) int
	// rebuildVacant routes VacantSlots/VacantView through the full-rebuild
	// oracle instead of the live store (see SetRebuildVacant).
	rebuildVacant bool
	// epoch counts logical mutations (bookings, removals, failures,
	// recoveries, revocations, clock advances). A plan records the epoch of
	// the snapshot it searched against; an unchanged epoch at apply time
	// proves the snapshot is still exact. The epoch is deliberately absent
	// from CanonicalState: it is a change detector, not state — two grids
	// with equal canonical state behave identically regardless of how many
	// mutations produced them (every apply re-validates through Book).
	epoch uint64
}

// New creates an idle grid over the pool.
func New(pool *resource.Pool) (*Grid, error) {
	if pool == nil || pool.Size() == 0 {
		return nil, fmt.Errorf("gridsim: empty node pool")
	}
	return &Grid{
		pool:   pool,
		booked: make(map[resource.NodeID][]Task),
		income: make(map[string]sim.Money),
	}, nil
}

// Pool returns the grid's node pool.
func (g *Grid) Pool() *resource.Pool { return g.pool }

// Now returns the grid's current time (the left edge of the scheduling
// horizon).
func (g *Grid) Now() sim.Time { return g.now }

// Epoch returns the grid's mutation counter. It increments on every
// successful state change — booking, removal, cancellation, node failure or
// recovery, revocation, and clock advance — and never decrements. A snapshot
// taken at epoch E is exact for as long as Epoch() == E.
func (g *Grid) Epoch() uint64 { return g.epoch }

// Book reserves the task's interval on its node. Booking fails when the
// node is unknown, the span is empty, it starts before the current time, or
// it overlaps an existing booking.
func (g *Grid) Book(t Task) error {
	node := g.pool.Node(t.Node)
	if node == nil {
		return fmt.Errorf("gridsim: task %s on unknown node %d", t.Name, t.Node)
	}
	if t.Span.Empty() || !t.Span.Valid() {
		return fmt.Errorf("gridsim: task %s has empty or invalid span %v", t.Name, t.Span)
	}
	if t.Span.Start < g.now {
		return fmt.Errorf("gridsim: task %s starts at %v before current time %v", t.Name, t.Span.Start, g.now)
	}
	if !t.Local && g.NodeFailed(t.Node) {
		// A failed node publishes no vacancy, so no window search can
		// legitimately land here — a VO reservation on a failed node can
		// only come from a plan that went stale mid-iteration, and
		// accepting it would violate the failed-node safety invariant.
		return fmt.Errorf("gridsim: task %s books failed node %s", t.Name, node.Label())
	}
	list := g.booked[t.Node]
	i := sort.Search(len(list), func(i int) bool { return list[i].Span.Start >= t.Span.Start })
	if i > 0 && list[i-1].Span.End > t.Span.Start {
		return fmt.Errorf("gridsim: task %s overlaps %s on %s", t.Name, list[i-1].Name, node.Label())
	}
	if i < len(list) && list[i].Span.Start < t.Span.End {
		return fmt.Errorf("gridsim: task %s overlaps %s on %s", t.Name, list[i].Name, node.Label())
	}
	list = append(list, Task{})
	copy(list[i+1:], list[i:])
	list[i] = t
	g.booked[t.Node] = list
	g.storeBook(node, list, i)
	g.epoch++
	return nil
}

// BookLocal books an owner-local task by node label, for building example
// environments.
func (g *Grid) BookLocal(name, nodeLabel string, start, end sim.Time) error {
	n := g.pool.ByName(nodeLabel)
	if n == nil {
		return fmt.Errorf("gridsim: unknown node %q", nodeLabel)
	}
	return g.Book(Task{Name: name, Node: n.ID, Span: sim.Interval{Start: start, End: end}, Local: true})
}

// Tasks returns all bookings on the node in start order.
func (g *Grid) Tasks(id resource.NodeID) []Task {
	out := make([]Task, len(g.booked[id]))
	copy(out, g.booked[id])
	return out
}

// AllTasks returns every booking in (node, start) order.
func (g *Grid) AllTasks() []Task {
	var out []Task
	for _, n := range g.pool.Nodes() {
		out = append(out, g.booked[n.ID]...)
	}
	return out
}

// VacantSlots publishes the local schedules as an ordered slot list over
// [Now, horizon): for each node, the complement of its bookings, sorted by
// start time across nodes — exactly the structure of Fig. 1a / Fig. 2a.
//
// By default the list is an O(1) copy-on-write snapshot of the live store
// (store.go), kept byte-identical to the rebuild by the mutation hooks; under
// SetRebuildVacant every call re-derives it from the bookings instead.
func (g *Grid) VacantSlots(horizon sim.Time) (*slot.List, error) {
	if horizon <= g.now {
		return nil, fmt.Errorf("gridsim: horizon %v not after current time %v", horizon, g.now)
	}
	if g.rebuildVacant {
		return g.RebuildVacantSlots(horizon)
	}
	g.ensureStore(horizon)
	g.metrics.storeSnapshot()
	if g.Shards() > 1 {
		return g.mergedStoreList(), nil
	}
	return g.stores[0].ix.List().Snapshot(), nil
}

// Commit books every placement of a chosen window as a VO reservation named
// after the window's job.
func (g *Grid) Commit(w *slot.Window) error {
	if err := w.Validate(); err != nil {
		return fmt.Errorf("gridsim: committing window: %w", err)
	}
	booked := make([]Task, 0, len(w.Placements))
	for _, p := range w.Placements {
		cost := p.Cost()
		t := Task{Name: w.JobName, Node: p.Source.Node.ID, Span: p.Used, Cost: cost, charged: cost}
		if err := g.Book(t); err != nil {
			// Roll back partial bookings so a failed commit leaves
			// the grid unchanged.
			for _, b := range booked {
				g.remove(b)
			}
			return err
		}
		booked = append(booked, t)
	}
	for _, t := range booked {
		g.income[g.pool.Node(t.Node).Domain] += t.charged
	}
	g.metrics.committed(len(booked))
	return nil
}

// remove deletes an exact booking; internal rollback helper.
func (g *Grid) remove(t Task) {
	list := g.booked[t.Node]
	for i, b := range list {
		if b.Name == t.Name && b.Span == t.Span && b.Local == t.Local {
			g.booked[t.Node] = append(list[:i], list[i+1:]...)
			g.storeUnbook(g.pool.Node(t.Node), t.Span)
			g.epoch++
			return
		}
	}
}

// Advance moves the grid clock forward and drops bookings that ended at or
// before the new time. Bookings straddling the new time are kept (their
// remaining part still occupies the node).
func (g *Grid) Advance(to sim.Time) error {
	if to < g.now {
		return fmt.Errorf("gridsim: cannot advance backwards from %v to %v", g.now, to)
	}
	g.now = to
	for id, list := range g.booked {
		kept := list[:0]
		for _, t := range list {
			if t.Span.End > to {
				kept = append(kept, t)
			}
		}
		g.booked[id] = kept
	}
	g.storeAdvance(to)
	g.epoch++
	return nil
}

// OwnerIncome returns the per-domain ledger of committed reservation fees —
// the resource owners' side of the VO economy — and the grand total. Fees
// are credited at commit time and refunded when a reservation is cancelled
// (node failure, partial-window release); completed reservations keep their
// credit after the clock passes them.
func (g *Grid) OwnerIncome() (map[string]sim.Money, sim.Money) {
	byDomain := make(map[string]sim.Money, len(g.income))
	var total sim.Money
	for d, m := range g.income {
		byDomain[d] = m
		total += m
	}
	return byDomain, total
}

// Utilization returns the booked fraction of node-ticks over [Now, horizon).
func (g *Grid) Utilization(horizon sim.Time) float64 {
	if horizon <= g.now || g.pool.Size() == 0 {
		return 0
	}
	total := float64(horizon.Sub(g.now)) * float64(g.pool.Size())
	var busy float64
	for _, n := range g.pool.Nodes() {
		for _, t := range g.booked[n.ID] {
			overlap := t.Span.Intersect(sim.Interval{Start: g.now, End: horizon})
			busy += float64(overlap.Length())
		}
	}
	return busy / total
}
