package alloc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/slot"
)

// The sharded search partitions the candidate *streams*, not the window
// searches: co-allocation windows may straddle shards, so each shard's index
// produces its own filter-passing candidates (in that shard's canonical
// order, chunked so production parallelizes), and a K-way merge re-interleaves
// them into the exact global canonical order before the per-algorithm fold
// (scanState) assembles windows. The fold is memoryless over the candidate
// sequence, and the merged sequence equals the unsharded index scan's — with
// seq reconstructed as the candidate's global rank + 1 via CountLess across
// the shard lists — so every window, eviction, budget check, and Stats
// counter is byte-identical to FindWindowIndexed over the merged list. Only
// candidate production fans out across goroutines; the fold stays sequential,
// so determinism never depends on goroutine scheduling.

// Per-round production chunks start small (most scans accept a window within
// the first few dozen ranks) and double per round up to a cap, bounding both
// the wasted overshoot on short scans and the number of refill rounds on deep
// ones.
const (
	shardChunkInit = 32
	shardChunkMax  = 8192
)

// ShardWork accumulates the sharded search's scan-phase accounting: how many
// ranks each shard's cursor walked, how many merged candidates the folds
// consumed, how many refill rounds ran, and the scan-phase critical path —
// the sum over refill rounds of the maximum ranks walked by any one shard
// that round. On a machine with at least K free cores the critical path is
// the wall-clock-proportional cost of candidate production; it is also the
// deterministic, hardware-independent number the scaling study reports.
type ShardWork struct {
	ScanSlots    []int64
	Merged       int64
	Rounds       int64
	CriticalPath int64
}

// shardCursor is one shard's production state within a single job scan.
type shardCursor struct {
	ix    *slot.Index
	limit int // deadline-bounded rank limit within this shard
	pos   int // next unexamined rank; ranks < pos are produced or skipped
	buf   []candidate
	head  int
	// walkedRound is the ranks walked in the current refill round, written
	// only by this cursor's producer goroutine.
	walkedRound int
}

func (cu *shardCursor) exhausted() bool { return cu.head >= len(cu.buf) && cu.pos >= cu.limit }

// produce advances the cursor by up to chunk ranks, buffering candidates that
// pass the filter and the suitability check. Each cursor is produced by at
// most one goroutine per round and touches only its own state, so rounds can
// fan out across shards freely.
func (cu *shardCursor) produce(f slot.Filter, req job.ResourceRequest, chunk int) {
	target := cu.pos + chunk
	if target > cu.limit {
		target = cu.limit
	}
	cu.ix.ScanFrom(f, cu.pos, target, nil, func(rank int, s slot.Slot) bool {
		if !suitsBeyondPerformance(s, req) {
			return true
		}
		// seq is assigned at consumption time, once the global rank is known.
		cu.buf = append(cu.buf, newCandidate(s, req, 0))
		return true
	})
	cu.walkedRound = target - cu.pos
	cu.pos = target
}

// frontierDefined reports whether the cursor still has unexamined ranks, and
// frontier returns the canonical key bounding every candidate the cursor may
// still produce: the slot at its next unexamined rank. Buffered candidates
// all order strictly before the frontier (ranks are key-increasing).
func (cu *shardCursor) frontierDefined() bool { return cu.pos < cu.limit }
func (cu *shardCursor) frontier() slot.Slot   { return cu.ix.At(cu.pos) }

// globalRank is the candidate slot's rank in the merged list: the sum of
// slots ordering strictly before it across every shard (its own shard's
// CountLess is exactly its local rank; cross-shard keys never tie because the
// shards are node-disjoint).
func globalRank(cursors []*shardCursor, s slot.Slot) int {
	r := 0
	for _, cu := range cursors {
		r += cu.ix.List().CountLess(s)
	}
	return r
}

// findWindowSharded runs one job's window scan over K shard indexes,
// reproducing findWindowIndexedStream over the merged list exactly.
// parallelism bounds the producer goroutines per refill round; any value
// yields the same result. work, when non-nil, accumulates scan-phase
// accounting.
func findWindowSharded(sa streamAlgorithm, shards []*slot.Index, j *job.Job, parallelism int, work *ShardWork) (*slot.Window, Stats, bool) {
	var stats Stats
	if err := validateInput(shards[0].List(), j); err != nil {
		return nil, stats, false
	}
	req := j.Request
	f := sa.scanFilter(req)
	st := sa.newScan(req)

	cursors := make([]*shardCursor, len(shards))
	totalLimit, totalN := 0, 0
	for i, ix := range shards {
		limit, n := scanLimit(ix, req)
		cursors[i] = &shardCursor{ix: ix, limit: limit}
		totalLimit += limit
		totalN += n
	}

	accepted := 0
	chunk := shardChunkInit
	for {
		// Top up every cursor that still has ranks and whose unconsumed
		// buffer dropped below one chunk. Refilling peers alongside the dry
		// cursor that stalled the merge keeps production batched across all
		// shards — one round walks ~chunk ranks on each shard concurrently —
		// instead of degrading to one producer per round as cursors drain one
		// at a time; the buffer threshold keeps a slow-draining shard from
		// accumulating unboundedly.
		var refill []*shardCursor
		for _, cu := range cursors {
			if cu.pos < cu.limit && len(cu.buf)-cu.head < chunk {
				if cu.head > 0 {
					cu.buf = append(cu.buf[:0], cu.buf[cu.head:]...)
					cu.head = 0
				}
				refill = append(refill, cu)
			}
		}
		if len(refill) > 0 {
			produceRound(refill, f, req, chunk, parallelism)
			if work != nil {
				work.Rounds++
				roundMax := 0
				for _, cu := range refill {
					if cu.walkedRound > roundMax {
						roundMax = cu.walkedRound
					}
				}
				work.CriticalPath += int64(roundMax)
				for i, cu := range cursors {
					if cu.walkedRound > 0 {
						if i < len(work.ScanSlots) {
							work.ScanSlots[i] += int64(cu.walkedRound)
						}
						cu.walkedRound = 0
					}
				}
			}
			if chunk < shardChunkMax {
				chunk *= 2
			}
		}

		// Consume buffered candidates in merged canonical order while the
		// merge head provably precedes everything any cursor may still
		// produce (every frontier). Draining a buffer re-enters the refill
		// step, so the merge never starves and never reorders.
		consumedAny := false
		for {
			best := -1
			for i, cu := range cursors {
				if cu.head >= len(cu.buf) {
					continue
				}
				if best < 0 || slot.Less(cu.buf[cu.head].s, cursors[best].buf[cursors[best].head].s) {
					best = i
				}
			}
			if best < 0 {
				break
			}
			headSlot := cursors[best].buf[cursors[best].head].s
			safe := true
			for _, cu := range cursors {
				if cu.frontierDefined() && !slot.Less(headSlot, cu.frontier()) {
					safe = false
					break
				}
			}
			if !safe {
				break
			}
			c := cursors[best].buf[cursors[best].head]
			cursors[best].head++
			consumedAny = true
			accepted++
			if work != nil {
				work.Merged++
			}
			rank := globalRank(cursors, c.s)
			// seq mirrors the linear scan's SlotsExamined at acceptance:
			// global rank + 1, exactly as the unsharded indexed scan assigns.
			c.seq = rank + 1
			if w, ok := st.accept(c, &stats); ok {
				win := buildWindow(j.Name, c.s.Start(), w)
				finishScanStats(&stats, req, totalLimit, totalN, rank, accepted, true)
				return win, stats, true
			}
		}

		if !consumedAny {
			done := true
			for _, cu := range cursors {
				if !cu.exhausted() {
					done = false
					break
				}
			}
			if done {
				break
			}
			// Not done and nothing consumable: at least one non-exhausted
			// cursor has an empty buffer (in particular the minimum-frontier
			// one — a buffered head below every frontier would be
			// consumable), so the next refill strictly advances it.
		}
	}
	finishScanStats(&stats, req, totalLimit, totalN, 0, accepted, false)
	return nil, stats, false
}

// produceRound advances the given cursors by one chunk each, fanning out
// across up to `parallelism` goroutines. Cursors are disjoint state, so the
// round is race-free and its outcome independent of scheduling.
func produceRound(refill []*shardCursor, f slot.Filter, req job.ResourceRequest, chunk, parallelism int) {
	workers := parallelism
	if workers > len(refill) {
		workers = len(refill)
	}
	if workers <= 1 || len(refill) == 1 {
		for _, cu := range refill {
			cu.produce(f, req, chunk)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(refill) {
					return
				}
				refill[i].produce(f, req, chunk)
			}
		}()
	}
	wg.Wait()
}

// FindAlternativesSharded is FindAlternatives over a sharded vacant view: the
// same multi-pass priority-order scheme, with every per-job window scan run
// by the cross-shard merge driver and every found window subtracted from the
// shard owning each placement's node. The caller transfers ownership of the
// shard indexes (they are mutated in place, like SearchOptions.Prebuilt), and
// shardOf must route every node to the index that holds its slots — the
// shards must partition the vacant list by node. Results are byte-identical
// to FindAlternatives over the merged list for every input; Remaining is the
// merged post-subtraction list. opts.Prebuilt is rejected: the shard indexes
// are the prebuilt state. work, when non-nil, accumulates scan-phase
// accounting across all scans.
func FindAlternativesSharded(algo Algorithm, shards []*slot.Index, shardOf func(*resource.Node) int,
	batch *job.Batch, opts SearchOptions, parallelism int, work *ShardWork) (*SearchResult, error) {
	if algo == nil {
		return nil, fmt.Errorf("alloc: nil algorithm")
	}
	sa, ok := algo.(streamAlgorithm)
	if !ok {
		return nil, fmt.Errorf("alloc: %s has no sharded scan", algo.Name())
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("alloc: no shard indexes")
	}
	if shardOf == nil && len(shards) > 1 {
		return nil, fmt.Errorf("alloc: nil shard assignment with %d shards", len(shards))
	}
	if batch == nil || batch.Len() == 0 {
		return nil, fmt.Errorf("alloc: empty batch")
	}
	if opts.Prebuilt != nil {
		return nil, fmt.Errorf("alloc: Prebuilt is not used by the sharded search; pass the shard indexes")
	}
	if work != nil && len(work.ScanSlots) < len(shards) {
		work.ScanSlots = make([]int64, len(shards))
	}

	for _, ix := range shards {
		ix.SetMetrics(opts.Metrics.indexMetrics())
	}
	subtract := func(w *slot.Window) error {
		for _, p := range w.Placements {
			i := 0
			if shardOf != nil {
				i = shardOf(p.Source.Node)
			}
			if i < 0 || i >= len(shards) {
				return fmt.Errorf("slot: subtract window %q: node %s assigned to shard %d of %d", w.JobName, p.Source.Node.Label(), i, len(shards))
			}
			if err := shards[i].SubtractInterval(p.Source, p.Used); err != nil {
				return fmt.Errorf("slot: subtract window %q: %w", w.JobName, err)
			}
		}
		return nil
	}

	res, err := searchPasses(algo.Name(), batch, opts, func(j *job.Job) (*slot.Window, Stats, bool) {
		return findWindowSharded(sa, shards, j, parallelism, work)
	}, subtract)
	if err != nil {
		return nil, err
	}
	lists := make([]*slot.List, len(shards))
	for i, ix := range shards {
		lists[i] = ix.List()
	}
	res.Remaining = slot.MergeLists(lists...)
	return res, nil
}
