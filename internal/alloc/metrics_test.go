package alloc

import (
	"testing"

	"ecosched/internal/metrics"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
	"ecosched/internal/workload"
)

// TestNilSearchMetricsZeroAllocs proves the disabled-instrumentation
// contract at the alloc layer: every observation method on a nil
// *SearchMetrics is a branch and a return, allocating nothing.
func TestNilSearchMetricsZeroAllocs(t *testing.T) {
	var m *SearchMetrics
	st := Stats{SlotsExamined: 40, SlotsRejected: 3, CandidatesEvicted: 2, BudgetChecks: 5}
	if avg := testing.AllocsPerRun(1000, func() {
		m.searchStarted()
		m.passDone()
		m.scanDone(st, true)
		m.scanDone(st, false)
		m.probeDone(slot.ScanStats{BucketsVisited: 3})
	}); avg != 0 {
		t.Errorf("nil SearchMetrics observations allocate %.1f per run, want 0", avg)
	}
	if sm := NewSearchMetrics(nil, "AMP"); sm != nil {
		t.Error("NewSearchMetrics(nil, ...) should return nil")
	}
}

// TestSearchMetricsNeutralAndAccurate runs the same multi-pass search with
// and without instruments and checks (a) the results are identical and (b)
// the instruments add up to the search's own accounting.
func TestSearchMetricsNeutralAndAccurate(t *testing.T) {
	sc, err := workload.GenerateScenario(workload.PaperSlotGenerator(), workload.PaperJobGenerator(), sim.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := FindAlternatives(AMP{}, sc.Slots, sc.Batch, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	opts := SearchOptions{Metrics: NewSearchMetrics(reg, "AMP")}
	inst, err := FindAlternatives(AMP{}, sc.Slots, sc.Batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderResult(t, sc.Batch, inst), renderResult(t, sc.Batch, plain); got != want {
		t.Fatalf("metrics changed the search result\n--- plain ---\n%s\n--- instrumented ---\n%s", want, got)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("alloc/AMP/windows_found_total"); got != int64(inst.TotalAlternatives()) {
		t.Errorf("windows_found_total %d != %d alternatives", got, inst.TotalAlternatives())
	}
	if got := snap.Counter("alloc/AMP/slots_examined_total"); got != int64(inst.Stats.SlotsExamined) {
		t.Errorf("slots_examined_total %d != %d examined", got, inst.Stats.SlotsExamined)
	}
	if got := snap.Counter("alloc/AMP/passes_total"); got != int64(inst.Passes) {
		t.Errorf("passes_total %d != %d passes", got, inst.Passes)
	}
	if got := snap.Counter("alloc/AMP/searches_total"); got != 1 {
		t.Errorf("searches_total %d != 1", got)
	}
	if got := snap.HistogramCount("alloc/AMP/scan_length_slots"); got <= 0 {
		t.Error("scan_length_slots histogram empty")
	}
}

// BenchmarkSearchMetricsOverhead measures the multi-pass search hot path
// with instrumentation disabled (nil *SearchMetrics — must report 0 B/op
// over the uninstrumented baseline) and enabled. Run with -benchmem; the
// "off" and "baseline" variants must show identical allocs/op.
func BenchmarkSearchMetricsOverhead(b *testing.B) {
	sc, err := workload.GenerateScenario(workload.PaperSlotGenerator(), workload.PaperJobGenerator(), sim.NewRNG(9))
	if err != nil {
		b.Fatal(err)
	}
	reg := metrics.New()
	variants := []struct {
		name string
		opts SearchOptions
	}{
		{"baseline", SearchOptions{}},
		{"off", SearchOptions{Metrics: nil}},
		{"on", SearchOptions{Metrics: NewSearchMetrics(reg, "AMP")}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FindAlternatives(AMP{}, sc.Slots, sc.Batch, v.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSearchMetricsOverheadAllocParity is the test-form of the benchmark's
// claim so CI enforces it: a search with a nil metrics field performs
// exactly as many allocations as one with no metrics field at all.
func TestSearchMetricsOverheadAllocParity(t *testing.T) {
	sc, err := workload.GenerateScenario(workload.PaperSlotGenerator(), workload.PaperJobGenerator(), sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts SearchOptions) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := FindAlternatives(AMP{}, sc.Slots, sc.Batch, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := run(SearchOptions{})
	withNil := run(SearchOptions{Metrics: nil})
	if withNil != base {
		t.Errorf("nil metrics search allocates %.1f/run vs baseline %.1f/run", withNil, base)
	}
}

var sinkStats Stats

// BenchmarkNilMetricsObservation pins the per-observation cost of the
// disabled path in the innermost terms: one scanDone on a nil receiver.
func BenchmarkNilMetricsObservation(b *testing.B) {
	var m *SearchMetrics
	st := Stats{SlotsExamined: 40}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.scanDone(st, i%2 == 0)
	}
	sinkStats = st
}
