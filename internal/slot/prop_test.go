package slot

import (
	"fmt"
	"testing"

	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// propNodes builds a reusable pool of nodes for the property runs.
func propNodes(n int) []*resource.Node {
	nodes := make([]*resource.Node, n)
	for i := range nodes {
		nodes[i] = &resource.Node{
			Name:        fmt.Sprintf("p%d", i),
			Performance: 1 + float64(i%3),
			Price:       sim.Money(1 + i%4),
		}
	}
	return nodes
}

// seedList builds a valid vacant list: one contiguous slot per node, so the
// per-node non-overlap invariant holds by construction and is preserved by
// every legal operation afterwards.
func seedList(rng *sim.RNG, nodes []*resource.Node) *List {
	var slots []Slot
	for _, n := range nodes {
		start := sim.Time(rng.IntBetween(0, 200))
		length := rng.DurationBetween(100, 600)
		slots = append(slots, New(n, start, start.Add(length)))
	}
	return NewList(slots)
}

// checkInvariants asserts the structural invariants the search algorithms
// rely on: canonical order, no empty slots, no same-node overlap.
func checkInvariants(t *testing.T, step string, l *List) {
	t.Helper()
	if err := l.Validate(); err != nil {
		t.Fatalf("%s: invariant broken: %v", step, err)
	}
	if l.OverlapOnSameNode() {
		t.Fatalf("%s: same-node overlap introduced", step)
	}
}

// snapshotState captures a list's observable state for later comparison.
func snapshotState(l *List) string { return l.String() }

// TestListOperationProperties drives long random sequences of the mutations
// the scheduler performs — subtract a window-sized interval from a random
// slot, insert a freed reservation back, coalesce — interleaved with
// snapshots, and checks after every step that the list stays sorted and
// non-overlapping per node, that total vacant time only changes by the
// subtracted/inserted amount, and that every live snapshot still renders
// exactly the state it was taken in.
func TestListOperationProperties(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := sim.NewRNG(seed)
		nodes := propNodes(8)
		list := seedList(rng, nodes)
		checkInvariants(t, "seed", list)

		type snap struct {
			view  *List
			state string
			step  int
		}
		var snaps []snap

		for step := 0; step < 120; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.IntN(10); {
			case op < 4 && list.Len() > 0: // subtract an interval
				target := list.At(rng.IntN(list.Len()))
				if target.Length() < 2 {
					continue
				}
				maxOff := int(target.Length()) - 1
				off := sim.Duration(rng.IntBetween(0, maxOff))
				length := sim.Duration(rng.IntBetween(1, int(target.Length()-off)))
				used := sim.Interval{Start: target.Start().Add(off), End: target.Start().Add(off + length)}
				before := list.TotalTime()
				if err := list.SubtractInterval(target, used); err != nil {
					t.Fatalf("%s: subtract: %v", label, err)
				}
				if got, want := list.TotalTime(), before-used.Length(); got != want {
					t.Fatalf("%s: total time %v after subtracting %v from %v, want %v",
						label, got, used.Length(), before, want)
				}
			case op < 6: // insert a freed span on a node, non-overlapping
				n := nodes[rng.IntN(len(nodes))]
				// Find a gap after the node's latest end to keep per-node
				// disjointness — mirrors a cancelled reservation re-opening
				// vacancy after existing slots.
				var latest sim.Time
				for _, s := range list.Slots() {
					if s.Node == n && s.End() > latest {
						latest = s.End()
					}
				}
				start := latest.Add(sim.Duration(rng.IntBetween(1, 50)))
				length := rng.DurationBetween(10, 120)
				before := list.TotalTime()
				list.Insert(New(n, start, start.Add(length)))
				if got, want := list.TotalTime(), before+length; got != want {
					t.Fatalf("%s: total time %v after inserting %v into %v, want %v",
						label, got, length, before, want)
				}
			case op < 7: // coalesce preserves vacant time and invariants
				before := list.TotalTime()
				list = list.Coalesce()
				if got := list.TotalTime(); got != before {
					t.Fatalf("%s: coalesce changed total time %v -> %v", label, before, got)
				}
			case op < 9: // take a snapshot to audit later
				snaps = append(snaps, snap{view: list.Snapshot(), state: snapshotState(list), step: step})
			default: // reprice must not disturb structure
				list = list.Reprice(func(s Slot) sim.Money { return s.Price * 2 })
				list = list.Reprice(func(s Slot) sim.Money { return s.Price / 2 })
			}
			checkInvariants(t, label, list)
			// Every snapshot taken so far must be unaffected by any of the
			// mutations above.
			for _, sn := range snaps {
				if got := snapshotState(sn.view); got != sn.state {
					t.Fatalf("seed %d: snapshot from step %d changed after step %d\n--- was ---\n%s\n--- now ---\n%s",
						seed, sn.step, step, sn.state, got)
				}
				checkInvariants(t, fmt.Sprintf("seed %d snapshot@%d", seed, sn.step), sn.view)
			}
		}
	}
}

// TestSnapshotWriteIsolation pins the copy-on-write contract in both
// directions: mutating the original never shows in the snapshot, and
// mutating the snapshot never shows in the original.
func TestSnapshotWriteIsolation(t *testing.T) {
	rng := sim.NewRNG(7)
	nodes := propNodes(6)
	original := seedList(rng, nodes)
	origState := snapshotState(original)

	view := original.Snapshot()
	if got := snapshotState(view); got != origState {
		t.Fatalf("fresh snapshot differs from original:\n%s\nvs\n%s", got, origState)
	}

	// Mutate the original: the snapshot must hold.
	target := original.At(0)
	mid := target.Start().Add(target.Length() / 2)
	if err := original.SubtractInterval(target, sim.Interval{Start: target.Start(), End: mid}); err != nil {
		t.Fatal(err)
	}
	if got := snapshotState(view); got != origState {
		t.Fatal("mutating the original leaked into the snapshot")
	}

	// Mutate the snapshot: the original must hold.
	afterMutation := snapshotState(original)
	view.RemoveAt(0)
	if got := snapshotState(original); got != afterMutation {
		t.Fatal("mutating the snapshot leaked into the original")
	}

	// Snapshot-of-snapshot keeps isolating.
	second := original.Snapshot()
	secondState := snapshotState(second)
	original.Insert(New(nodes[0], 10_000, 10_050))
	if got := snapshotState(second); got != secondState {
		t.Fatal("second-generation snapshot observed a later mutation")
	}
}
