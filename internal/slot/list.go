package slot

import (
	"fmt"
	"sort"
	"strings"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// List is an ordered list of vacant slots sorted by non-decreasing start
// time — the structure from Fig. 1a that both ALP and AMP scan front to back.
// Ties on start time keep a deterministic secondary order (node ID, then end
// time) so experiment runs are reproducible.
//
// The zero value is an empty, ready-to-use list.
//
// A list supports cheap immutable snapshots (Snapshot) with copy-on-write
// semantics: taking a snapshot is O(1), and the first mutation of either the
// original or a descendant after a snapshot copies the backing storage, so a
// snapshot is never affected by later mutations. Snapshots make the slot list
// safe to scan from many goroutines while one goroutine keeps committing
// subtractions to the live list (see internal/alloc's parallel search).
type List struct {
	slots []Slot
	// shared marks the backing array as potentially aliased by a snapshot;
	// mutators copy before writing when it is set.
	shared bool
}

// NewList builds a list from the given slots, dropping empty ones and
// sorting into canonical order.
func NewList(slots []Slot) *List {
	l := &List{slots: make([]Slot, 0, len(slots))}
	for _, s := range slots {
		if !s.Empty() {
			l.slots = append(l.slots, s)
		}
	}
	l.sort()
	return l
}

func less(a, b Slot) bool {
	if a.Start() != b.Start() {
		return a.Start() < b.Start()
	}
	var an, bn resource.NodeID = -1, -1
	if a.Node != nil {
		an = a.Node.ID
	}
	if b.Node != nil {
		bn = b.Node.ID
	}
	if an != bn {
		return an < bn
	}
	return a.End() < b.End()
}

func (l *List) sort() {
	sort.SliceStable(l.slots, func(i, j int) bool { return less(l.slots[i], l.slots[j]) })
}

// Less reports whether a orders strictly before b in the canonical list order:
// start time, then node ID (nil node first), then end time. It is the total
// order every List maintains, exported so cross-list machinery — the sharded
// search's K-way candidate merge — can compare heads from different lists
// against the same order the lists themselves use.
func Less(a, b Slot) bool { return less(a, b) }

// CountLess returns how many slots in the list order strictly before s under
// the canonical order. For a slot present in the list this is its rank; for a
// partition of one list into several, summing CountLess over the parts
// recovers a slot's rank in the original (slots on distinct nodes never
// compare equal, so the parts are mutually tie-free).
func (l *List) CountLess(s Slot) int {
	return sort.Search(len(l.slots), func(i int) bool { return !less(l.slots[i], s) })
}

// MergeLists merges already-ordered lists into one canonical list in O(n·K).
// It is the inverse of partitioning a list by node: merging the per-shard
// vacant views yields the exact global view, byte for byte, because the
// canonical order is total and node-disjoint parts never tie. The result owns
// fresh backing storage, so later mutations of the inputs do not affect it.
func MergeLists(parts ...*List) *List {
	total := 0
	for _, p := range parts {
		if p != nil {
			total += p.Len()
		}
	}
	out := &List{slots: make([]Slot, 0, total)}
	idx := make([]int, len(parts))
	for len(out.slots) < total {
		best := -1
		for i, p := range parts {
			if p == nil || idx[i] >= p.Len() {
				continue
			}
			if best < 0 || less(p.slots[idx[i]], parts[best].slots[idx[best]]) {
				best = i
			}
		}
		out.slots = append(out.slots, parts[best].slots[idx[best]])
		idx[best]++
	}
	return out
}

// Len returns the number of slots in the list.
func (l *List) Len() int { return len(l.slots) }

// At returns the i-th slot in start-time order.
func (l *List) At(i int) Slot { return l.slots[i] }

// Slots returns the underlying slice in order. Callers must treat it as
// read-only; mutate through Insert/Remove/Subtract instead.
func (l *List) Slots() []Slot { return l.slots }

// Clone returns a deep copy of the list. Node pointers are shared (nodes are
// immutable during a scheduling iteration).
func (l *List) Clone() *List {
	c := &List{slots: make([]Slot, len(l.slots))}
	copy(c.slots, l.slots)
	return c
}

// Snapshot returns an O(1) immutable view of the list's current state. The
// snapshot and the original share backing storage until either side mutates;
// the first mutation copies (copy-on-write), so the snapshot keeps observing
// exactly the slots present when it was taken. Snapshots are safe to read
// concurrently as long as Snapshot itself is called from the mutating
// goroutine before readers start.
func (l *List) Snapshot() *List {
	l.shared = true
	return &List{slots: l.slots, shared: true}
}

// ensureOwned gives the list sole ownership of its backing storage before a
// mutation, preserving every outstanding snapshot.
func (l *List) ensureOwned() {
	if !l.shared {
		return
	}
	owned := make([]Slot, len(l.slots))
	copy(owned, l.slots)
	l.slots = owned
	l.shared = false
}

// Insert adds a slot, keeping the canonical order. Empty slots are ignored,
// matching the paper's rule that zero-span remainders K1/K2 are not added.
func (l *List) Insert(s Slot) {
	if s.Empty() {
		return
	}
	l.insertAt(l.insertionRank(s), s)
}

// insertionRank returns the rank Insert places s at: after every slot that
// orders before or ties with s. Index shares this so its bucket bookkeeping
// agrees with the list placement bit for bit.
func (l *List) insertionRank(s Slot) int {
	return sort.Search(len(l.slots), func(i int) bool { return less(s, l.slots[i]) })
}

// insertAt places s at rank i, shifting later slots right. i must be the
// rank insertionRank(s) returns or the order invariant breaks.
func (l *List) insertAt(i int, s Slot) {
	l.ensureOwned()
	l.slots = append(l.slots, Slot{})
	copy(l.slots[i+1:], l.slots[i:])
	l.slots[i] = s
}

// RemoveAt deletes the i-th slot.
func (l *List) RemoveAt(i int) {
	l.ensureOwned()
	l.slots = append(l.slots[:i], l.slots[i+1:]...)
}

// indexOf locates a slot equal to s (same node, same span); -1 when absent.
func (l *List) indexOf(s Slot) int {
	i := sort.Search(len(l.slots), func(i int) bool { return !less(l.slots[i], s) })
	for ; i < len(l.slots); i++ {
		c := l.slots[i]
		if c.Start() != s.Start() {
			break
		}
		if c.Node == s.Node && c.Span == s.Span {
			return i
		}
	}
	return -1
}

// Validate checks every slot and the ordering invariant.
func (l *List) Validate() error {
	for i, s := range l.slots {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("slot %d: %w", i, err)
		}
		if s.Empty() {
			return fmt.Errorf("slot %d: empty slot %v retained in list", i, s)
		}
		if i > 0 && l.slots[i-1].Start() > s.Start() {
			return fmt.Errorf("slot %d: start order violated (%v after %v)", i, s, l.slots[i-1])
		}
	}
	return nil
}

// OverlapOnSameNode reports whether any two slots on the same node overlap —
// a well-formed vacant list never has such overlaps.
func (l *List) OverlapOnSameNode() bool {
	latest := map[*resource.Node]sim.Time{}
	for _, s := range l.slots {
		// Sorted by start, so it suffices to compare with the furthest
		// end seen so far per node.
		if end, ok := latest[s.Node]; ok && s.Start() < end {
			return true
		}
		if end, ok := latest[s.Node]; !ok || s.End() > end {
			latest[s.Node] = s.End()
		}
	}
	return false
}

// TotalTime returns the summed length of all slots.
func (l *List) TotalTime() sim.Duration {
	var sum sim.Duration
	for _, s := range l.slots {
		sum += s.Length()
	}
	return sum
}

// Nodes returns the distinct nodes that own at least one slot, in first-seen
// order.
func (l *List) Nodes() []*resource.Node {
	seen := map[*resource.Node]bool{}
	var out []*resource.Node
	for _, s := range l.slots {
		if !seen[s.Node] {
			seen[s.Node] = true
			out = append(out, s.Node)
		}
	}
	return out
}

// SubtractInterval removes the usage interval used from the slot equal to
// target, inserting the up-to-two remainder slots K1 = [K.start, used.start)
// and K2 = [used.end, K.end) per Fig. 1b. It returns an error when target is
// not present or used is not contained in target's span.
func (l *List) SubtractInterval(target Slot, used sim.Interval) error {
	i := l.indexOf(target)
	if i < 0 {
		return fmt.Errorf("slot: subtract: slot %v not found in list", target)
	}
	if !target.Span.ContainsInterval(used) {
		return fmt.Errorf("slot: subtract: interval %v not contained in slot %v", used, target)
	}
	l.RemoveAt(i)
	left := target
	left.Span = sim.Interval{Start: target.Start(), End: used.Start}
	right := target
	right.Span = sim.Interval{Start: used.End, End: target.End()}
	// Insert keeps order; K1 lands where K was (same start), K2 later.
	l.Insert(left)
	l.Insert(right)
	return nil
}

// SubtractWindow removes every placement of the window from the list: for
// each placed slot, the interval actually occupied by its task is cut out of
// the originating vacant slot. This is the modification applied after a
// successful search for job i, before searching for job i+1.
func (l *List) SubtractWindow(w *Window) error {
	for _, p := range w.Placements {
		if err := l.SubtractInterval(p.Source, p.Used); err != nil {
			return fmt.Errorf("slot: subtract window %q: %w", w.JobName, err)
		}
	}
	return nil
}

// Coalesce merges touching or overlapping slots that share a node and a
// price, returning a new normalized list. Cancelled reservations re-open
// vacancy fragments that often abut the surrounding slots; coalescing keeps
// the list small and the windows the search can build maximal.
func (l *List) Coalesce() *List {
	// Group by (node, price), merge within groups, then rebuild.
	type key struct {
		node  *resource.Node
		price sim.Money
	}
	groups := make(map[key][]sim.Interval)
	for _, s := range l.slots {
		k := key{s.Node, s.Price}
		groups[k] = append(groups[k], s.Span)
	}
	var merged []Slot
	for k, ivs := range groups {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
		cur := ivs[0]
		for _, iv := range ivs[1:] {
			if iv.Start <= cur.End { // touching or overlapping
				if iv.End > cur.End {
					cur.End = iv.End
				}
				continue
			}
			merged = append(merged, Slot{Node: k.node, Price: k.price, Span: cur})
			cur = iv
		}
		merged = append(merged, Slot{Node: k.node, Price: k.price, Span: cur})
	}
	return NewList(merged)
}

// Reprice returns a copy of the list with every slot's price replaced by
// price(slot). Node pointers are shared; only the per-slot price changes.
// Used by the demand-adjusted pricing extension, where published prices
// follow current utilization rather than the node's static price.
func (l *List) Reprice(price func(Slot) sim.Money) *List {
	c := l.Clone()
	for i := range c.slots {
		c.slots[i].Price = price(c.slots[i])
	}
	return c
}

// String renders the list one slot per line.
func (l *List) String() string {
	var b strings.Builder
	for i, s := range l.slots {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%3d: %v", i, s)
	}
	return b.String()
}
