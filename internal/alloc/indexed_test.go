package alloc

import (
	"testing"

	"ecosched/internal/job"
	"ecosched/internal/metrics"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// TestIndexedFindWindowMatchesLinear is the per-scan oracle check: for many
// seeded lists and requests — with and without deadlines, across bucket
// sizes from degenerate (1) to default — FindWindowIndexed must reproduce
// FindWindowLinear exactly: same ok, same Stats, same window. The probe
// variant re-runs every indexed scan with a ScanStats attached to pin that
// observation never perturbs the result.
func TestIndexedFindWindowMatchesLinear(t *testing.T) {
	algos := []IndexedAlgorithm{ALP{}, AMP{}, AMP{Policy: FirstN}}
	bucketSizes := []int{1, 3, 16, slot.DefaultBucketSize}
	for seed := uint64(1); seed <= 30; seed++ {
		rng := sim.NewRNG(seed)
		list := fuzzList(seed, 2+int(seed%9), 1+int(seed%5))
		indexes := make([]*slot.Index, len(bucketSizes))
		for i, bs := range bucketSizes {
			indexes[i] = slot.NewIndexSize(list, bs, nil)
			if err := indexes[i].CheckInvariants(); err != nil {
				t.Fatalf("seed %d bucket size %d: fresh index invalid: %v", seed, bs, err)
			}
		}
		for trial := 0; trial < 8; trial++ {
			req := fuzzRequest(
				uint8(rng.IntN(256)), uint8(rng.IntN(256)),
				uint16(rng.IntN(1<<16)), uint16(rng.IntN(1<<16)),
				uint16(rng.IntN(1<<16)), uint16(rng.IntN(1<<16)))
			if trial%2 == 0 {
				req.Deadline = 0 // exercise the no-deadline full-scan branch too
			}
			j := &job.Job{Name: "ix", Priority: 1, Request: req}
			if err := j.Validate(); err != nil {
				continue
			}
			for _, algo := range algos {
				lw, lst, lok := algo.FindWindowLinear(list, j)
				for i, ix := range indexes {
					for _, withProbe := range []bool{false, true} {
						var probe *slot.ScanStats
						if withProbe {
							probe = &slot.ScanStats{}
						}
						iw, ist, iok := algo.FindWindowIndexed(ix, j, probe)
						if iok != lok || ist != lst {
							t.Fatalf("seed %d trial %d %s bucket size %d: indexed (ok=%v stats=%+v) != linear (ok=%v stats=%+v)",
								seed, trial, algo.Name(), bucketSizes[i], iok, ist, lok, lst)
						}
						if lok && iw.String() != lw.String() {
							t.Fatalf("seed %d trial %d %s bucket size %d: indexed window %v != linear %v",
								seed, trial, algo.Name(), bucketSizes[i], iw, lw)
						}
					}
				}
			}
		}
	}
}

// TestIndexedSearchMatchesLinearOracle is the driver-level differential: the
// default indexed FindAlternatives (and the fair variant) must be
// byte-identical to the linear oracle on full SearchResults — windows,
// discovery order, pass count, stats, and the remaining list.
func TestIndexedSearchMatchesLinearOracle(t *testing.T) {
	if _, ok := Algorithm(linearOracle{AMP{}}).(IndexedAlgorithm); ok {
		t.Fatal("linearOracle exposes the indexed scan: the differential would compare the index with itself")
	}
	algos := []Algorithm{ALP{}, AMP{}, AMP{Policy: FirstN}}
	options := []SearchOptions{
		{},
		{FirstOnly: true},
		{MaxAlternativesPerJob: 2},
		{MaxPasses: 3},
	}
	for seed := uint64(1); seed <= 20; seed++ {
		list, batch := diffScenario(t, seed)
		for _, algo := range algos {
			for oi, opts := range options {
				oracle, err := FindAlternatives(linearOracle{algo}, list, batch, opts)
				if err != nil {
					t.Fatalf("seed %d %s opts %d: linear: %v", seed, algo.Name(), oi, err)
				}
				want := renderResult(t, batch, oracle)
				indexed, err := FindAlternatives(algo, list, batch, opts)
				if err != nil {
					t.Fatalf("seed %d %s opts %d: indexed: %v", seed, algo.Name(), oi, err)
				}
				if got := renderResult(t, batch, indexed); got != want {
					t.Fatalf("seed %d %s opts %d: indexed search diverged from linear oracle\n--- linear ---\n%s\n--- indexed ---\n%s",
						seed, algo.Name(), oi, want, got)
				}
				if oi != 0 {
					continue
				}
				fairOracle, err := FindAlternativesFair(linearOracle{algo}, list, batch, opts)
				if err != nil {
					t.Fatalf("seed %d %s: fair linear: %v", seed, algo.Name(), err)
				}
				fairIndexed, err := FindAlternativesFair(algo, list, batch, opts)
				if err != nil {
					t.Fatalf("seed %d %s: fair indexed: %v", seed, algo.Name(), err)
				}
				if got, wantFair := renderResult(t, batch, fairIndexed), renderResult(t, batch, fairOracle); got != wantFair {
					t.Fatalf("seed %d %s: fair indexed diverged from fair linear\n--- linear ---\n%s\n--- indexed ---\n%s",
						seed, algo.Name(), wantFair, got)
				}
			}
		}
	}
}

// TestIndexedSearchDisjointBands repeats the oracle differential on the
// low-conflict benchmark fixture, whose long rejecting scans are the index's
// favorable case (whole buckets pruned by the tag-blind performance filter
// stay visited-prefix-accurate).
func TestIndexedSearchDisjointBands(t *testing.T) {
	list, batch := disjointBandsFixture(6, 12, 6)
	opts := SearchOptions{MaxAlternativesPerJob: 3}
	for _, algo := range []Algorithm{ALP{}, AMP{}} {
		oracle, err := FindAlternatives(linearOracle{algo}, list, batch, opts)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := FindAlternatives(algo, list, batch, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderResult(t, batch, indexed), renderResult(t, batch, oracle); got != want {
			t.Fatalf("%s: indexed diverged on disjoint-band fixture\n--- linear ---\n%s\n--- indexed ---\n%s",
				algo.Name(), want, got)
		}
		if oracle.TotalAlternatives() == 0 {
			t.Fatalf("%s: fixture found no alternatives; fixture broken", algo.Name())
		}
	}
}

// TestIndexedSearchBenchFixture pins the benchmark fixture itself: the
// indexed and linear searches must agree on it and must find alternatives,
// so the speedup the benchmarks report compares equal, non-empty work.
func TestIndexedSearchBenchFixture(t *testing.T) {
	list, batch := indexedBenchFixture(10000)
	opts := SearchOptions{MaxAlternativesPerJob: 2}
	oracle, err := FindAlternatives(linearOracle{AMP{}}, list, batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := FindAlternatives(AMP{}, list, batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderResult(t, batch, indexed), renderResult(t, batch, oracle); got != want {
		t.Fatalf("indexed diverged on the benchmark fixture\n--- linear ---\n%s\n--- indexed ---\n%s", want, got)
	}
	if oracle.TotalAlternatives() == 0 {
		t.Fatal("benchmark fixture finds no alternatives; the comparison is empty work")
	}
}

// TestIndexedSearchInstrumented attaches a registry to the indexed search
// and checks the index instruments fire coherently: the result is unchanged,
// every scan is counted, and the incremental maintenance counters add up
// (one rebuild for the initial build; inserts/removes per subtraction).
func TestIndexedSearchInstrumented(t *testing.T) {
	list, batch := diffScenario(t, 5)
	plain, err := FindAlternatives(AMP{}, list, batch, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	opts := SearchOptions{Metrics: NewSearchMetrics(reg, "AMP")}
	inst, err := FindAlternatives(AMP{}, list, batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderResult(t, batch, inst), renderResult(t, batch, plain); got != want {
		t.Fatalf("index metrics changed the search result\n--- plain ---\n%s\n--- instrumented ---\n%s", want, got)
	}
	snap := reg.Snapshot()
	scans := snap.Counter("alloc/AMP/index/scans_total")
	totalScans := snap.Counter("alloc/AMP/windows_found_total") + snap.Counter("alloc/AMP/windows_missed_total")
	if scans != totalScans {
		t.Errorf("index scans_total %d != %d committed scans", scans, totalScans)
	}
	if got := snap.Counter("alloc/AMP/index/rebuilds_total"); got != 1 {
		t.Errorf("rebuilds_total %d, want 1 (the initial build)", got)
	}
	// Every found window subtracts its placements: one remove plus up to two
	// remainder inserts each, all through the index.
	found := snap.Counter("alloc/AMP/windows_found_total")
	if removes := snap.Counter("alloc/AMP/index/removes_total"); found > 0 && removes == 0 {
		t.Errorf("windows were subtracted but removes_total is 0 (found=%d)", found)
	}
	if visited := snap.Counter("alloc/AMP/index/buckets_visited_total"); scans > 0 && visited == 0 {
		t.Error("committed indexed scans recorded no bucket visits")
	}
}
