package gridsim

import (
	"fmt"
	"sort"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// This file implements the grid's live vacant-slot store: a persistent
// slot.List + slot.Index over [Now, horizon) that every state transition
// maintains incrementally, so publishing vacancy (VacantSlots / VacantView)
// is an O(1) copy-on-write snapshot instead of an O(nodes·tasks) rebuild.
//
// Sharding. Under SetSharding the store is split by node into K independent
// stores, one per shard: stores[i] covers exactly the nodes the assignment
// routes to shard i. Every mutation hook touches only the affected node's
// shard, publication hands out per-shard views (ShardViews), and incoherence
// self-healing is shard-local — one shard dropping never rebuilds the others.
// The unsharded grid is the K=1 degenerate case with a single store.
//
// Ownership and coherence. Each store is a derived cache of (booked, failed,
// now) restricted to its shard's nodes: it holds, per live node, exactly the
// maximal complement intervals of the node's bookings clipped to
// [now, horizon). Every mutation hook below derives the affected slots' exact
// identities from the booking neighbors — O(log n) binary searches, never a
// rescan — and applies them through the index so bucket bookkeeping stays
// consistent. Because the canonical slot order (start, node, end) is a strict
// total order over well-formed vacant lists, incremental maintenance lands
// every slot at exactly the rank the full-rebuild oracle's stable sort would,
// and each store stays byte-identical to the oracle filtered to its nodes —
// the equivalence the chaos soak, the model checker, and fault.Audit's
// per-transition VacantStoreCoherent check all pin.
//
// Lifecycle. Stores build lazily on the first publication (one NewIndex per
// shard on the steady-state path, counted in gridsim/store/rebuilds_total and,
// when sharded, gridsim/store/shard<i>/rebuilds_total), extend per-node when
// the horizon slides forward, trim when the clock advances, and self-heal by
// dropping the affected shard if an exact-identity operation ever misses
// (counted in incoherent_drops_total; the equivalence suites assert it stays
// zero). SetRebuildVacant(true) disables the store entirely, re-routing every
// publication through the pinned rebuild oracle.
type vacantStore struct {
	ix *slot.Index
	// horizon is the exclusive right edge the store currently covers.
	horizon sim.Time
}

// SetRebuildVacant toggles the oracle path: when on, VacantSlots and
// VacantView rebuild the vacant list (and any index over it) from the
// bookings on every call — the historical behavior — and the live stores are
// released. Results are byte-identical either way. Production code never
// turns it on: it is the seam through which the differential tests and the
// store benchmarks compare the live store against its oracle.
func (g *Grid) SetRebuildVacant(on bool) {
	g.rebuildVacant = on
	if on {
		g.stores = nil
	}
}

// SetSharding partitions the live store by node into k shards using the
// given assignment (internal/shard provides the canonical one; gridsim only
// requires determinism and range [0, k)). k <= 1 with any assignment returns
// to the unsharded single store. Existing stores are released so the next
// publication rebuilds under the new partition; results are byte-identical
// for every k (the sharding differential pins this).
func (g *Grid) SetSharding(k int, of func(*resource.Node) int) error {
	if k < 1 {
		k = 1
	}
	if k > 1 {
		if of == nil {
			return fmt.Errorf("gridsim: sharding into %d shards needs a node assignment", k)
		}
		for _, n := range g.pool.Nodes() {
			if i := of(n); i < 0 || i >= k {
				return fmt.Errorf("gridsim: node %s assigned to shard %d, want [0,%d)", n.Label(), i, k)
			}
		}
	}
	g.shardCount = k
	g.shardOf = of
	g.stores = nil
	return nil
}

// Shards returns the configured shard count (1 when unsharded).
func (g *Grid) Shards() int {
	if g.shardCount < 1 {
		return 1
	}
	return g.shardCount
}

// shardIdx returns the shard owning the node.
func (g *Grid) shardIdx(n *resource.Node) int {
	if g.shardCount <= 1 || g.shardOf == nil {
		return 0
	}
	return g.shardOf(n)
}

// storeFor returns the node's shard store (nil when inactive) and its shard
// index, for the shard-local self-healing path.
func (g *Grid) storeFor(n *resource.Node) (*vacantStore, int) {
	if len(g.stores) == 0 {
		return nil, 0
	}
	i := g.shardIdx(n)
	return g.stores[i], i
}

// storeSlotsTotal is the live slot count across all shard stores — the value
// the gridsim/store/slots gauge tracks (identical to the single store's size
// when unsharded).
func (g *Grid) storeSlotsTotal() int {
	total := 0
	for _, st := range g.stores {
		if st != nil {
			total += st.ix.Len()
		}
	}
	return total
}

// vacantFragments returns the node's maximal vacant intervals over [from, to)
// — the complement of its bookings — in start order. Both the rebuild oracle
// and the store's node-restore/horizon-extend paths derive fragments through
// this one walk, so they cannot disagree on boundary conventions.
func (g *Grid) vacantFragments(n *resource.Node, from, to sim.Time) []slot.Slot {
	var out []slot.Slot
	cursor := from
	for _, t := range g.booked[n.ID] {
		if t.Span.End <= cursor {
			continue
		}
		if t.Span.Start >= to {
			break
		}
		if t.Span.Start > cursor {
			out = append(out, slot.New(n, cursor, t.Span.Start.Min(to)))
		}
		if t.Span.End > cursor {
			cursor = t.Span.End
		}
	}
	if cursor < to {
		out = append(out, slot.New(n, cursor, to))
	}
	return out
}

// ensureStore makes every shard's live store cover exactly [now, horizon):
// building missing ones (first use, or a shard that self-healed), extending
// when the horizon slid forward, and rebuilding when the caller asked for a
// shorter horizon (not a steady-state shape — the metascheduler's horizon
// only ever slides forward).
func (g *Grid) ensureStore(horizon sim.Time) {
	if g.stores == nil {
		g.stores = make([]*vacantStore, g.Shards())
	}
	for i := range g.stores {
		if st := g.stores[i]; st != nil {
			switch {
			case st.horizon == horizon:
				continue
			case horizon > st.horizon:
				g.extendShardStore(i, horizon)
			default:
				g.stores[i] = nil
			}
		}
		if g.stores[i] == nil {
			g.buildShardStore(i, horizon)
		}
	}
}

// buildShardStore constructs one shard's store from scratch at the given
// horizon — the only place the live path pays a full build.
func (g *Grid) buildShardStore(i int, horizon sim.Time) {
	var slots []slot.Slot
	for _, n := range g.pool.Nodes() {
		if g.shardIdx(n) != i || g.NodeFailed(n.ID) {
			continue
		}
		slots = append(slots, g.vacantFragments(n, g.now, horizon)...)
	}
	ix := slot.NewIndexSize(slot.NewList(slots), slot.DefaultBucketSize, g.metrics.storeIndexMetrics())
	g.stores[i] = &vacantStore{ix: ix, horizon: horizon}
	g.metrics.storeRebuilt(g.storeSlotsTotal())
	if g.Shards() > 1 {
		g.metrics.storeShardRebuilt(i)
	}
}

// dropShardStore releases one incoherent shard store so the next publication
// rebuilds it — shard-locally: the other shards' stores (and their
// rebuilds_total counters) are untouched. This is the self-healing path
// behind the exact-identity operations: it can only trigger after the store
// diverged from the bookings (e.g. a corruption hook like ForceBook bypassed
// the mutation hooks), and the equivalence suites assert the counter stays
// zero on every production path.
func (g *Grid) dropShardStore(i int) {
	g.stores[i] = nil
	g.metrics.storeIncoherent()
	if g.Shards() > 1 {
		g.metrics.storeShardIncoherent(i)
	}
}

// storeBook subtracts a just-booked task's span from the node's shard store.
// list is the node's booking list with the task already inserted at position
// i; the containing maximal vacant interval is bounded by the neighbors
// (clipped to [now, horizon)), which identifies the store slot to punch
// exactly.
func (g *Grid) storeBook(node *resource.Node, list []Task, i int) {
	st, si := g.storeFor(node)
	if st == nil || g.NodeFailed(node.ID) {
		return
	}
	t := list[i]
	clip := t.Span.Intersect(sim.Interval{Start: g.now, End: st.horizon})
	if clip.Empty() {
		return
	}
	lo, hi := g.now, st.horizon
	if i > 0 && list[i-1].Span.End > lo {
		lo = list[i-1].Span.End
	}
	if i+1 < len(list) && list[i+1].Span.Start < hi {
		hi = list[i+1].Span.Start
	}
	target := slot.Slot{Node: node, Price: node.Price, Span: sim.Interval{Start: lo, End: hi}}
	if err := st.ix.SubtractInterval(target, clip); err != nil {
		g.dropShardStore(si)
		return
	}
	g.metrics.storePunched(g.storeSlotsTotal())
}

// storeUnbook restores a just-removed booking's span to the node's shard
// store, merging with the (exactly known) adjacent fragments so the result is
// again the maximal vacant interval between the surviving neighbors. Callers
// must remove bookings one at a time — remove a task from g.booked, then call
// storeUnbook, then the next — so the neighbor derivation always runs against
// a booking list the store is coherent with.
func (g *Grid) storeUnbook(node *resource.Node, span sim.Interval) {
	st, si := g.storeFor(node)
	if st == nil || g.NodeFailed(node.ID) {
		return
	}
	clip := span.Intersect(sim.Interval{Start: g.now, End: st.horizon})
	if clip.Empty() {
		return
	}
	list := g.booked[node.ID]
	i := sort.Search(len(list), func(k int) bool { return list[k].Span.Start >= span.Start })
	lo, hi := g.now, st.horizon
	if i > 0 && list[i-1].Span.End > lo {
		lo = list[i-1].Span.End
	}
	if i < len(list) && list[i].Span.Start < hi {
		hi = list[i].Span.Start
	}
	left := sim.Interval{Start: lo, End: clip.Start}
	right := sim.Interval{Start: clip.End, End: hi}
	if !left.Empty() && !st.ix.RemoveExact(slot.Slot{Node: node, Price: node.Price, Span: left}) {
		g.dropShardStore(si)
		return
	}
	if !right.Empty() && !st.ix.RemoveExact(slot.Slot{Node: node, Price: node.Price, Span: right}) {
		g.dropShardStore(si)
		return
	}
	st.ix.Insert(slot.Slot{Node: node, Price: node.Price, Span: sim.Interval{Start: lo, End: hi}})
	g.metrics.storeRestored(g.storeSlotsTotal())
}

// storeFail drops every store slot of a node that just failed from its shard.
// The failure mark must already be set, so the cancellation removals that
// follow skip their storeUnbook restores.
func (g *Grid) storeFail(node *resource.Node) {
	st, _ := g.storeFor(node)
	if st == nil {
		return
	}
	st.ix.DropNode(node)
	g.metrics.storeNodeDropped(g.storeSlotsTotal())
}

// storeRecover re-derives a just-recovered node's vacancy from its bookings
// and inserts the fragments into its shard. Fragments are maximal by
// construction, and the node contributed no slots while failed, so no merging
// is needed.
func (g *Grid) storeRecover(node *resource.Node) {
	st, _ := g.storeFor(node)
	if st == nil {
		return
	}
	for _, f := range g.vacantFragments(node, g.now, st.horizon) {
		st.ix.Insert(f)
	}
	g.metrics.storeNodeRestored(g.storeSlotsTotal())
}

// storeAdvance trims every shard store to the new clock. A clock at or past a
// store's horizon leaves nothing to keep; that store is released and rebuilds
// on the next publication (the metascheduler's Step < Horizon never hits
// this).
func (g *Grid) storeAdvance(to sim.Time) {
	for i, st := range g.stores {
		if st == nil {
			continue
		}
		if to >= st.horizon {
			g.stores[i] = nil
			continue
		}
		st.ix.TrimBefore(to)
		g.metrics.storeTrimmed(g.storeSlotsTotal())
	}
}

// extendShardStore grows one shard store's coverage from its current horizon
// to the new one: per live node of the shard, the fragments over the newly
// visible window are derived from the bookings (an O(log n) search finds the
// walk's start) and inserted. A fragment opening exactly at the old horizon
// continues a vacancy run that was clipped there, so the trailing store slot
// is removed and the merged maximal interval inserted instead — exactly what
// the oracle emits over the wider window.
func (g *Grid) extendShardStore(si int, horizon sim.Time) {
	st := g.stores[si]
	old := st.horizon
	st.horizon = horizon
	for _, n := range g.pool.Nodes() {
		if g.shardIdx(n) != si || g.NodeFailed(n.ID) {
			continue
		}
		list := g.booked[n.ID]
		i := sort.Search(len(list), func(k int) bool { return list[k].Span.Start >= old })
		cursor := old
		var frags []slot.Slot
		for k := i - 1; k < len(list); k++ {
			if k < 0 {
				continue
			}
			t := list[k]
			if t.Span.End <= cursor {
				continue
			}
			if t.Span.Start >= horizon {
				break
			}
			if t.Span.Start > cursor {
				frags = append(frags, slot.New(n, cursor, t.Span.Start.Min(horizon)))
			}
			if t.Span.End > cursor {
				cursor = t.Span.End
			}
		}
		if cursor < horizon {
			frags = append(frags, slot.New(n, cursor, horizon))
		}
		if len(frags) > 0 && frags[0].Span.Start == old {
			// The node was either vacant right up to the old horizon (a
			// trailing slot ends there — merge with it) or a booking ended
			// exactly at it (no trailing slot; the fragment stands alone).
			if !(i > 0 && list[i-1].Span.End >= old) {
				trailStart := g.now
				if i > 0 && list[i-1].Span.End > trailStart {
					trailStart = list[i-1].Span.End
				}
				trail := slot.Slot{Node: n, Price: n.Price, Span: sim.Interval{Start: trailStart, End: old}}
				if !st.ix.RemoveExact(trail) {
					g.dropShardStore(si)
					return
				}
				frags[0].Span.Start = trailStart
			}
		}
		for _, f := range frags {
			st.ix.Insert(f)
		}
	}
	g.metrics.storeExtended(g.storeSlotsTotal())
}

// RebuildVacantSlots is the pinned oracle: it derives the full vacant list
// from the bookings — for each live node, the complement intervals over
// [Now, horizon), sorted into canonical order — exactly as VacantSlots always
// had. The live store must match it byte for byte at all times; the
// equivalence suites and fault.Audit enforce that.
func (g *Grid) RebuildVacantSlots(horizon sim.Time) (*slot.List, error) {
	if horizon <= g.now {
		return nil, fmt.Errorf("gridsim: horizon %v not after current time %v", horizon, g.now)
	}
	var slots []slot.Slot
	for _, n := range g.pool.Nodes() {
		if g.NodeFailed(n.ID) {
			continue
		}
		slots = append(slots, g.vacantFragments(n, g.now, horizon)...)
	}
	return slot.NewList(slots), nil
}

// shardOracle rebuilds one shard's vacant list from the bookings — the
// rebuild oracle restricted to the shard's live nodes.
func (g *Grid) shardOracle(si int, horizon sim.Time) *slot.List {
	var slots []slot.Slot
	for _, n := range g.pool.Nodes() {
		if g.shardIdx(n) != si || g.NodeFailed(n.ID) {
			continue
		}
		slots = append(slots, g.vacantFragments(n, g.now, horizon)...)
	}
	return slot.NewList(slots)
}

// VacantView publishes the vacancy over [Now, horizon) as both an ordered
// list and a search-ready index over the same snapshot. On the unsharded live
// path the index is an O(n)-copy clone of the store's — no walk, no sort, no
// re-tiling — and the caller owns it outright: the alternative search
// subtracts found windows from it directly (alloc.SearchOptions.Prebuilt)
// without ever touching the store. Under SetRebuildVacant the index is
// nil and the list is a fresh oracle rebuild; callers fall back to building
// their own index, which is exactly the historical code path. A sharded grid
// also returns a nil index — the merged list is not any one shard's — and
// sharded callers use ShardViews instead, which preserves the per-shard
// prebuilt indexes.
func (g *Grid) VacantView(horizon sim.Time) (*slot.List, *slot.Index, error) {
	if horizon <= g.now {
		return nil, nil, fmt.Errorf("gridsim: horizon %v not after current time %v", horizon, g.now)
	}
	if g.rebuildVacant {
		l, err := g.RebuildVacantSlots(horizon)
		return l, nil, err
	}
	g.ensureStore(horizon)
	if g.Shards() > 1 {
		g.metrics.storeSnapshot()
		return g.mergedStoreList(), nil, nil
	}
	ix := g.stores[0].ix.Clone(nil)
	g.metrics.storeSnapshot()
	return ix.List(), ix, nil
}

// ShardViews publishes the vacancy over [Now, horizon) as one search-ready
// index per shard, each covering exactly its shard's nodes. On the live path
// every view is an O(n)-copy clone of that shard's store; under the
// SetRebuildVacant each is rebuilt from the bookings. The caller owns the
// views outright (the sharded search subtracts from them in place), and
// merging them in canonical order reproduces VacantSlots byte for byte.
func (g *Grid) ShardViews(horizon sim.Time) ([]*slot.Index, error) {
	if horizon <= g.now {
		return nil, fmt.Errorf("gridsim: horizon %v not after current time %v", horizon, g.now)
	}
	views := make([]*slot.Index, g.Shards())
	if g.rebuildVacant {
		for i := range views {
			views[i] = slot.NewIndex(g.shardOracle(i, horizon), nil)
		}
		return views, nil
	}
	g.ensureStore(horizon)
	for i, st := range g.stores {
		views[i] = st.ix.Clone(nil)
	}
	g.metrics.storeSnapshot()
	return views, nil
}

// mergedStoreList merges the shard stores' lists into the global canonical
// list (fresh storage; later store mutations leave it untouched).
func (g *Grid) mergedStoreList() *slot.List {
	lists := make([]*slot.List, len(g.stores))
	for i, st := range g.stores {
		lists[i] = st.ix.List()
	}
	return slot.MergeLists(lists...)
}

// VacantStoreCoherent verifies every live shard store against the rebuild
// oracle restricted to its nodes, plus the index's bucket invariants; nil
// when the store is inactive (a shard mid-self-heal is skipped — it holds no
// state to diverge). fault.Audit runs it after every event and iteration,
// which is what proves the incremental maintenance byte-identical to the
// rebuild across the chaos soak and the model checker's bounded state space —
// per shard when sharded (audit invariant 7 covers shard-boundary
// interleavings through this).
func (g *Grid) VacantStoreCoherent() error {
	for si, st := range g.stores {
		if st == nil {
			continue
		}
		label := ""
		if g.Shards() > 1 {
			label = fmt.Sprintf(" shard %d", si)
		}
		if err := st.ix.CheckInvariants(); err != nil {
			return fmt.Errorf("gridsim: live store%s index: %w", label, err)
		}
		if st.horizon <= g.now {
			return fmt.Errorf("gridsim: live store%s horizon stale: horizon %v not after current time %v", label, st.horizon, g.now)
		}
		oracle := g.shardOracle(si, st.horizon)
		live := st.ix.List()
		if live.Len() != oracle.Len() {
			return fmt.Errorf("gridsim: live store%s has %d slots, oracle rebuild has %d (horizon %v)",
				label, live.Len(), oracle.Len(), st.horizon)
		}
		for i := 0; i < live.Len(); i++ {
			if live.At(i) != oracle.At(i) {
				return fmt.Errorf("gridsim: live store%s diverged at rank %d: have %v, oracle says %v (horizon %v)",
					label, i, live.At(i), oracle.At(i), st.horizon)
			}
		}
	}
	return nil
}
