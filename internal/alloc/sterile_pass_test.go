package alloc

import (
	"fmt"
	"testing"

	"ecosched/internal/job"
	"ecosched/internal/metrics"
	"ecosched/internal/resource"
	"ecosched/internal/slot"
)

// TestNoSterileFinalPass is the regression test for the capped-search bug:
// when every job reaches MaxAlternativesPerJob, the search used to run (and
// count, in Passes and passes_total) one more pass in which the per-job cap
// check skipped every job — a pass that could not possibly scan anything.
// With a 3-slot list and 2 jobs each capped at 1 alternative, the first pass
// caps everybody, so exactly one pass must run. The uncapped search still
// counts its final empty pass: that one did scan and is how termination is
// detected.
func TestNoSterileFinalPass(t *testing.T) {
	for _, base := range []Algorithm{ALP{}, AMP{}} {
		for _, linear := range []bool{false, true} {
			algo := base
			if linear {
				algo = linearOracle{base}
			}
			for _, parallelism := range []int{1, 4} {
				name := fmt.Sprintf("%s/linear=%t/par=%d", algo.Name(), linear, parallelism)
				t.Run(name, func(t *testing.T) {
					reg := metrics.New()
					opts := SearchOptions{
						MaxAlternativesPerJob: 1,
						Metrics:               NewSearchMetrics(reg, algo.Name()),
					}
					res, err := searchWithParallelism(algo, pooledSmallList(), twoJobBatch(), opts, parallelism)
					if err != nil {
						t.Fatal(err)
					}
					if !res.AllJobsCovered(twoJobBatch()) {
						t.Fatal("both jobs should reach their cap on an idle list")
					}
					if res.Passes != 1 {
						t.Fatalf("Passes = %d, want 1: the all-capped pass must be neither run nor counted", res.Passes)
					}
					want := fmt.Sprintf("alloc/%s/passes_total", algo.Name())
					if n := reg.Counter(want).Value(); n != 1 {
						t.Fatalf("%s = %d, want 1", want, n)
					}

					// Uncapped control: the final empty pass is real scan work
					// and stays counted.
					res, err = searchWithParallelism(algo, pooledSmallList(), twoJobBatch(), SearchOptions{}, parallelism)
					if err != nil {
						t.Fatal(err)
					}
					if res.Passes < 2 {
						t.Fatalf("uncapped Passes = %d, want >= 2 (terminating empty pass included)", res.Passes)
					}
				})
			}
		}
	}
}

// pooledSmallList is smallList with its nodes numbered by a pool, as every
// grid's nodes are: the sharded search routes and merges by node ID, so the
// fixture's three nodes need distinct IDs to spread across shards.
func pooledSmallList() *slot.List {
	a := mkNode("a", 1, 2)
	b := mkNode("b", 1, 3)
	c := mkNode("c", 1, 4)
	resource.MustNewPool([]*resource.Node{a, b, c})
	return slot.NewList([]slot.Slot{
		slot.New(a, 0, 400),
		slot.New(b, 0, 400),
		slot.New(c, 0, 400),
	})
}

// searchWithParallelism runs the search on the driver a parallelism level
// selects: 1 is FindAlternatives; above 1 the list is split by node into
// that many shards and FindAlternativesSharded runs with as many producer
// goroutines. An algorithm without a sharded scan (the linear oracle) always
// takes FindAlternatives, its only driver.
func searchWithParallelism(algo Algorithm, list *slot.List, batch *job.Batch, opts SearchOptions, parallelism int) (*SearchResult, error) {
	if parallelism <= 1 || !SupportsSharded(algo) {
		return FindAlternatives(algo, list, batch, opts)
	}
	shards, shardOf := shardSplit(list, parallelism)
	return FindAlternativesSharded(algo, shards, shardOf, batch, opts, parallelism, nil)
}

// TestPrebuiltIndexEquivalence proves a search that adopts caller-built
// indexes returns byte-identical results to the historical clone-and-build
// path, and that the adopting path really skips the rebuild
// (alloc/<algo>/index/rebuilds_total stays 0). At par=1 the adopted index is
// SearchOptions.Prebuilt under FindAlternatives; at par=4 it is the shard
// indexes handed to FindAlternativesSharded, scanned by four producers.
func TestPrebuiltIndexEquivalence(t *testing.T) {
	for _, algo := range []Algorithm{ALP{}, AMP{}} {
		for _, parallelism := range []int{1, 4} {
			name := fmt.Sprintf("%s/par=%d", algo.Name(), parallelism)
			t.Run(name, func(t *testing.T) {
				base, err := FindAlternatives(algo, pooledSmallList(), twoJobBatch(), SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				reg := metrics.New()
				opts := SearchOptions{Metrics: NewSearchMetrics(reg, algo.Name())}
				var got *SearchResult
				if parallelism == 1 {
					opts.Prebuilt = slot.NewIndex(pooledSmallList().Clone(), nil)
					got, err = FindAlternatives(algo, opts.Prebuilt.List(), twoJobBatch(), opts)
				} else {
					got, err = searchWithParallelism(algo, pooledSmallList(), twoJobBatch(), opts, parallelism)
				}
				if err != nil {
					t.Fatal(err)
				}
				if got.Passes != base.Passes || got.Stats != base.Stats ||
					fmt.Sprint(got.Alternatives) != fmt.Sprint(base.Alternatives) ||
					got.Remaining.String() != base.Remaining.String() {
					t.Fatalf("prebuilt search diverged from clone-and-build:\nbase %+v\ngot  %+v", base, got)
				}
				rebuilds := fmt.Sprintf("alloc/%s/index/rebuilds_total", algo.Name())
				if n := reg.Counter(rebuilds).Value(); n != 0 {
					t.Fatalf("%s = %d, want 0: the prebuilt index must be adopted, not rebuilt", rebuilds, n)
				}
			})
		}
	}
}
