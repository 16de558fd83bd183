// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
// paper-vs-measured record), plus the ablation benches DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// The per-op workloads are scaled down (studies run tens of iterations per
// op instead of the paper's 25 000) so the full suite completes in minutes;
// the CLI (cmd/ecosched) runs the full-scale versions.
package ecosched_test

import (
	"fmt"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/backfill"
	"ecosched/internal/dp"
	"ecosched/internal/experiments"
	"ecosched/internal/job"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
	"ecosched/internal/strategy"
	"ecosched/internal/workload"
)

// benchIterations is the per-op study size for figure benches.
const benchIterations = 30

// BenchmarkFig2AMPExample regenerates the Section 4 worked example
// (Figs. 2–3): environment construction, vacant-slot derivation, and the
// full AMP + ALP alternative searches.
func BenchmarkFig2AMPExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSection4()
		if err != nil {
			b.Fatal(err)
		}
		if res.AMP.TotalAlternatives() == 0 {
			b.Fatal("no alternatives")
		}
	}
}

// BenchmarkFig4TimeMin regenerates the Fig. 4 study: time minimization under
// the VO budget, ALP vs AMP on identical slot lists.
func BenchmarkFig4TimeMin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.PaperStudyConfig(uint64(i)+1, benchIterations)
		res, err := experiments.RunStudy(experiments.TimeMin, cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Kept
	}
}

// BenchmarkFig5Series regenerates the Fig. 5 per-experiment series.
func BenchmarkFig5Series(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.PaperStudyConfig(uint64(i)+1, benchIterations)
		cfg.SeriesLength = benchIterations
		res, err := experiments.RunStudy(experiments.TimeMin, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Kept > 0 && res.AMP.TimeSeries.Len() == 0 {
			b.Fatal("series empty")
		}
	}
}

// BenchmarkFig6CostMin regenerates the Fig. 6 study: cost minimization under
// the occupancy quota.
func BenchmarkFig6CostMin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.PaperStudyConfig(uint64(i)+1, benchIterations)
		if _, err := experiments.RunStudy(experiments.CostMin, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRhoSweep regenerates the Section 6 budget-factor ablation.
func BenchmarkRhoSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.PaperStudyConfig(uint64(i)+1, benchIterations)
		if _, err := experiments.RhoSweep(cfg, []float64{0.8, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

// scalingList builds an m-slot paper-style list and a probing job whose cap
// forces a deep scan.
func scalingList(m int, seed uint64) (*slot.List, *job.Job) {
	gen := workload.PaperSlotGenerator()
	gen.CountMin, gen.CountMax = m, m
	list, _, err := gen.Generate(sim.NewRNG(seed))
	if err != nil {
		panic(err)
	}
	j := &job.Job{Name: "probe", Priority: 1, Request: job.ResourceRequest{
		Nodes: 4, Time: 100, MinPerformance: 1, MaxPrice: 2.0}}
	return list, j
}

// BenchmarkALPScaling and BenchmarkAMPScaling back the Section 3 complexity
// claim with wall-clock evidence: doubling m at most doubles the single-
// window search time.
func BenchmarkALPScaling(b *testing.B) {
	for _, m := range []int{1000, 2000, 4000, 8000} {
		list, j := scalingList(m, 7)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alloc.ALP{}.FindWindow(list, j)
			}
		})
	}
}

func BenchmarkAMPScaling(b *testing.B) {
	for _, m := range []int{1000, 2000, 4000, 8000} {
		list, j := scalingList(m, 7)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alloc.AMP{}.FindWindow(list, j)
			}
		})
	}
}

// BenchmarkBackfillScaling measures the baseline's earliest-window probe on
// clusters whose busy structure holds m intervals — the comparison point for
// the quadratic-vs-linear discussion.
func BenchmarkBackfillScaling(b *testing.B) {
	for _, m := range []int{1000, 2000, 4000, 8000} {
		rng := sim.NewRNG(uint64(m))
		cluster, err := backfill.NewCluster(16)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < m; i++ {
			node := i % 16
			start := sim.Time(int64(i/16)*400) + sim.Time(rng.IntBetween(0, 99))
			d := rng.DurationBetween(50, 300)
			if err := cluster.Occupy(node, start, d); err != nil {
				continue
			}
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := cluster.EarliestWindow(8, 250); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAMPPolicyAblation compares the paper's cheapest-N window policy
// against the first-N arrival-order policy (DESIGN.md §5).
func BenchmarkAMPPolicyAblation(b *testing.B) {
	list, j := scalingList(2000, 3)
	for _, pol := range []alloc.WindowPolicy{alloc.CheapestN, alloc.FirstN} {
		b.Run(pol.String(), func(b *testing.B) {
			algo := alloc.AMP{Policy: pol}
			for i := 0; i < b.N; i++ {
				algo.FindWindow(list, j)
			}
		})
	}
}

// benchAlternatives builds a realistic alternatives map for DP benches.
func benchAlternatives(b *testing.B) (*job.Batch, dp.Alternatives) {
	b.Helper()
	sc, err := workload.GenerateScenario(workload.PaperSlotGenerator(), workload.PaperJobGenerator(), sim.NewRNG(11))
	if err != nil {
		b.Fatal(err)
	}
	res, err := alloc.FindAlternatives(alloc.AMP{}, sc.Slots, sc.Batch, alloc.SearchOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if !res.AllJobsCovered(sc.Batch) {
		b.Skip("seed gives incomplete coverage")
	}
	return sc.Batch, dp.Alternatives(res.Alternatives)
}

// BenchmarkDPGranularity compares the exact time-axis backward run against
// money-grid variants (DESIGN.md §5 ablation).
func BenchmarkDPGranularity(b *testing.B) {
	batch, alts := benchAlternatives(b)
	limits, err := dp.ComputeLimits(batch, alts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dp.MinimizeTime(batch, alts, limits.Budget); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, states := range []int{100, 2000} {
		grid := sim.Money(1)
		if g := float64(limits.Budget) / float64(states); g > 1 {
			grid = sim.Money(g)
		}
		b.Run(fmt.Sprintf("grid-states=%d", states), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Coarse grids may be infeasible; that is the
				// measured trade-off, not an error.
				_, _ = dp.MinimizeTimeGrid(batch, alts, limits.Budget, grid)
			}
		})
	}
}

// BenchmarkDPOptimizers measures the two backward-run problems on realistic
// alternative sets.
func BenchmarkDPOptimizers(b *testing.B) {
	batch, alts := benchAlternatives(b)
	limits, err := dp.ComputeLimits(batch, alts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("MinimizeTime", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dp.MinimizeTime(batch, alts, limits.Budget); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MinimizeCost", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dp.MinimizeCost(batch, alts, limits.Quota); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDPEngines compares the two combination-optimizer engines on the
// full per-iteration workload a metascheduler performs — derive B* from T*
// (Eq. 3), then solve the time-minimization policy — on realistic
// paper-workload alternative sets. "frontier" is the production sparse
// engine (one shared backward pass); "dense" is the reference time-axis
// tables (one table per problem). internal/dp's BenchmarkFrontierDP /
// BenchmarkDenseDP measure the same comparison on synthetic large-quota and
// many-alternatives shapes.
func BenchmarkDPEngines(b *testing.B) {
	batch, alts := benchAlternatives(b)
	b.Run("frontier", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fr, err := dp.NewFrontier(batch, alts)
			if err != nil {
				b.Fatal(err)
			}
			limits, err := fr.Limits()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fr.MinimizeTime(limits.Budget); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			limits, err := dp.ComputeLimitsDense(batch, alts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := dp.MinimizeTimeDense(batch, alts, limits.Budget); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSearchPasses compares first-window-only search with the full
// multi-pass alternative search (DESIGN.md §5 ablation).
func BenchmarkSearchPasses(b *testing.B) {
	sc, err := workload.GenerateScenario(workload.PaperSlotGenerator(), workload.PaperJobGenerator(), sim.NewRNG(13))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("first-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := alloc.FindFirst(alloc.AMP{}, sc.Slots, sc.Batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multi-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := alloc.FindAlternatives(alloc.AMP{}, sc.Slots, sc.Batch, alloc.SearchOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSlotSubtraction measures the Fig. 1b list surgery in isolation.
func BenchmarkSlotSubtraction(b *testing.B) {
	gen := workload.PaperSlotGenerator()
	gen.CountMin, gen.CountMax = 140, 140
	base, _, err := gen.Generate(sim.NewRNG(17))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := base.Clone()
		target := l.At(i % l.Len())
		mid := target.Start().Add(target.Length() / 4)
		end := mid.Add(target.Length() / 2)
		if err := l.SubtractInterval(target, sim.Interval{Start: mid, End: end}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFairnessStudy regenerates the batch-at-once fair-search extension
// comparison (Section 7 future work).
func BenchmarkFairnessStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.PaperStudyConfig(uint64(i)+1, benchIterations)
		if _, _, err := experiments.FairnessStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRobustnessStudy regenerates the failure-injection strategy
// extension (Section 7 future work, refs [13, 14]).
func BenchmarkRobustnessStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, err := strategy.RobustnessStudy(strategy.RobustnessConfig{
			Seed:        uint64(i) + 1,
			Iterations:  benchIterations,
			FailureProb: 0.25,
			Policy:      strategy.EarliestFirst,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFairSearch compares the per-call cost of the sequential and
// batch-at-once searches on one scenario.
func BenchmarkFairSearch(b *testing.B) {
	sc, err := workload.GenerateScenario(workload.PaperSlotGenerator(), workload.PaperJobGenerator(), sim.NewRNG(19))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := alloc.FindAlternatives(alloc.AMP{}, sc.Slots, sc.Batch, alloc.SearchOptions{FirstOnly: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-at-once", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := alloc.FindAlternativesFair(alloc.AMP{}, sc.Slots, sc.Batch, alloc.SearchOptions{FirstOnly: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParetoFront measures the criteria-vector frontier computation on
// realistic alternative sets (Section 2's multi-criteria model).
func BenchmarkParetoFront(b *testing.B) {
	batch, alts := benchAlternatives(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dp.ParetoFront(batch, alts, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicsStudy regenerates the failure-injected metascheduler
// recovery study.
func BenchmarkDynamicsStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.DynamicsStudy(experiments.DynamicsConfig{
			Seed: uint64(i) + 1, Sessions: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineStudy regenerates the backfilling-vs-economic-scheme
// comparison on homogeneous clusters.
func BenchmarkBaselineStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.BaselineStudy(experiments.BaselineConfig{
			Seed: uint64(i) + 1, Trials: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusteredAblation regenerates the statistical-vs-clustered slot
// structure comparison.
func BenchmarkClusteredAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.PaperStudyConfig(uint64(i)+1, benchIterations)
		if _, err := experiments.ClusteredAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
