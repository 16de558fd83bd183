package alloc

import (
	"testing"

	"ecosched/internal/resource"
	"ecosched/internal/slot"
)

// shardSplit partitions a list's slots by node into k node-disjoint indexes,
// returning them with the assignment function the sharded search needs. The
// assignment (node ID mod k) is arbitrary but stable — any node-partition
// must reproduce the unsharded scan.
func shardSplit(list *slot.List, k int) ([]*slot.Index, func(*resource.Node) int) {
	shardOf := func(n *resource.Node) int { return int(n.ID) % k }
	parts := make([][]slot.Slot, k)
	for _, s := range list.Slots() {
		i := shardOf(s.Node)
		parts[i] = append(parts[i], s)
	}
	shards := make([]*slot.Index, k)
	for i := range shards {
		shards[i] = slot.NewIndex(slot.NewList(parts[i]), nil)
	}
	return shards, shardOf
}

// TestFindWindowShardedMatchesIndexed is the scan-level sharding oracle: for
// seeded scenarios (odd seeds carry deadlines), every algorithm, K from 1 to
// a shard count exceeding some scenarios' node count (empty shards must be
// harmless), and both a serial and a fanned-out producer pool, the cross-
// shard merge scan must reproduce FindWindowIndexed over the unsharded list
// exactly: same ok, same Stats (including the seq-derived eviction and
// budget-check history), same window.
func TestFindWindowShardedMatchesIndexed(t *testing.T) {
	algos := []IndexedAlgorithm{ALP{}, AMP{}, AMP{Policy: FirstN}}
	for seed := uint64(1); seed <= 12; seed++ {
		list, batch := diffScenario(t, seed)
		full := slot.NewIndex(list.Clone(), nil)
		for _, k := range []int{1, 2, 3, 5, 7} {
			shards, _ := shardSplit(list, k)
			for _, algo := range algos {
				sa := algo.(streamAlgorithm)
				for _, j := range batch.Jobs() {
					ww, wst, wok := algo.FindWindowIndexed(full, j, nil)
					for _, parallelism := range []int{1, 4} {
						work := &ShardWork{ScanSlots: make([]int64, k)}
						gw, gst, gok := findWindowSharded(sa, shards, j, parallelism, work)
						if gok != wok || gst != wst {
							t.Fatalf("seed %d k=%d %s %s p=%d: sharded (ok=%v stats=%+v) != indexed (ok=%v stats=%+v)",
								seed, k, algo.Name(), j.Name, parallelism, gok, gst, wok, wst)
						}
						if wok && gw.String() != ww.String() {
							t.Fatalf("seed %d k=%d %s %s p=%d: sharded window %v != indexed %v",
								seed, k, algo.Name(), j.Name, parallelism, gw, ww)
						}
						walked := int64(0)
						for _, w := range work.ScanSlots {
							walked += w
						}
						if walked > 0 && work.CriticalPath == 0 {
							t.Fatalf("seed %d k=%d %s %s: walked %d ranks but critical path is 0", seed, k, algo.Name(), j.Name, walked)
						}
						if work.CriticalPath > walked {
							t.Fatalf("seed %d k=%d %s %s: critical path %d exceeds total walked %d", seed, k, algo.Name(), j.Name, work.CriticalPath, walked)
						}
					}
				}
			}
		}
	}
}

// TestFindAlternativesShardedMatchesUnsharded is the driver-level sharding
// differential the satellite suite requires: the full multi-pass sharded
// search — merged per-job alternative lists, pass counts, stats, and the
// merged remaining list — must be byte-identical to the unsharded
// FindAlternatives for every K, option set, and producer parallelism.
func TestFindAlternativesShardedMatchesUnsharded(t *testing.T) {
	algos := []Algorithm{ALP{}, AMP{}, AMP{Policy: FirstN}}
	options := []SearchOptions{
		{},
		{FirstOnly: true},
		{MaxAlternativesPerJob: 2},
		{MaxPasses: 3},
	}
	for seed := uint64(1); seed <= 12; seed++ {
		list, batch := diffScenario(t, seed)
		for _, algo := range algos {
			for oi, opts := range options {
				oracle, err := FindAlternatives(algo, list, batch, opts)
				if err != nil {
					t.Fatalf("seed %d %s opts %d: unsharded: %v", seed, algo.Name(), oi, err)
				}
				want := renderResult(t, batch, oracle)
				for _, k := range []int{1, 2, 4, 7} {
					for _, parallelism := range []int{1, 4} {
						shards, shardOf := shardSplit(list, k)
						work := &ShardWork{}
						res, err := FindAlternativesSharded(algo, shards, shardOf, batch, opts, parallelism, work)
						if err != nil {
							t.Fatalf("seed %d %s opts %d k=%d p=%d: sharded: %v", seed, algo.Name(), oi, k, parallelism, err)
						}
						if got := renderResult(t, batch, res); got != want {
							t.Fatalf("seed %d %s opts %d k=%d p=%d: sharded search diverged\n--- unsharded ---\n%s\n--- sharded ---\n%s",
								seed, algo.Name(), oi, k, parallelism, want, got)
						}
						if len(work.ScanSlots) != k {
							t.Fatalf("seed %d k=%d: work tracks %d shards", seed, k, len(work.ScanSlots))
						}
					}
				}
			}
		}
	}
}

// TestFindAlternativesShardedRejects pins the sharded driver's argument
// contract: no algorithm without a stream scan, no empty shard set, no nil
// assignment with several shards, no Prebuilt option. The linear oracle
// lacks the stream decomposition, so it is rejected as a non-stream
// algorithm rather than silently diverging.
func TestFindAlternativesShardedRejects(t *testing.T) {
	list, batch := diffScenario(t, 2)
	shards, shardOf := shardSplit(list, 2)
	cases := []struct {
		name string
		run  func() error
	}{
		{"nil algorithm", func() error {
			_, err := FindAlternativesSharded(nil, shards, shardOf, batch, SearchOptions{}, 1, nil)
			return err
		}},
		{"non-stream algorithm", func() error {
			_, err := FindAlternativesSharded(linearOracle{ALP{}}, shards, shardOf, batch, SearchOptions{}, 1, nil)
			return err
		}},
		{"no shards", func() error {
			_, err := FindAlternativesSharded(ALP{}, nil, shardOf, batch, SearchOptions{}, 1, nil)
			return err
		}},
		{"nil assignment", func() error {
			_, err := FindAlternativesSharded(ALP{}, shards, nil, batch, SearchOptions{}, 1, nil)
			return err
		}},
		{"empty batch", func() error {
			_, err := FindAlternativesSharded(ALP{}, shards, shardOf, nil, SearchOptions{}, 1, nil)
			return err
		}},
		{"prebuilt", func() error {
			_, err := FindAlternativesSharded(ALP{}, shards, shardOf, batch, SearchOptions{Prebuilt: slot.NewIndex(list.Clone(), nil)}, 1, nil)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if !SupportsSharded(ALP{}) || !SupportsSharded(AMP{}) {
		t.Error("ALP/AMP must support the sharded driver")
	}
	if SupportsSharded(linearOracle{AMP{}}) {
		t.Error("linear oracle claims sharded support")
	}
}
