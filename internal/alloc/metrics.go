package alloc

import (
	"ecosched/internal/metrics"
	"ecosched/internal/slot"
)

// SearchMetrics holds the pre-resolved instruments of one algorithm's
// alternative search. Resolve once per scheduler (or per study) with
// NewSearchMetrics and attach via SearchOptions.Metrics; a nil *SearchMetrics
// disables instrumentation at zero cost on the scan hot path.
//
// Determinism note: every observation below happens on the search's own
// goroutine, in batch order, so two identical seeded searches always produce
// identical counter values.
type SearchMetrics struct {
	// WindowsFound / WindowsMissed split the per-job scan outcomes.
	WindowsFound  *metrics.Counter
	WindowsMissed *metrics.Counter
	// SlotsExamined, SlotsRejected, CandidatesEvicted, and BudgetChecks
	// aggregate the Stats counters of every committed scan.
	SlotsExamined     *metrics.Counter
	SlotsRejected     *metrics.Counter
	CandidatesEvicted *metrics.Counter
	BudgetChecks      *metrics.Counter
	// Passes counts full passes over the batch (including the terminating
	// empty one), Searches counts FindAlternatives-level invocations.
	Passes   *metrics.Counter
	Searches *metrics.Counter
	// ScanLength is the distribution of visited-prefix lengths per scan —
	// the deterministic work-unit analogue of per-scan latency.
	ScanLength *metrics.Histogram
	// Index aggregates the slot-index maintenance instruments (rebuilds,
	// incremental updates, bucket churn) under alloc/<algo>/index/.
	Index *slot.IndexMetrics
	// IndexScans counts committed scans answered through the index;
	// BucketsVisited/BucketsPruned/SlotsSkipped sum their traversal work —
	// the sublinearity evidence.
	IndexScans     *metrics.Counter
	BucketsVisited *metrics.Counter
	BucketsPruned  *metrics.Counter
	SlotsSkipped   *metrics.Counter
}

// NewSearchMetrics resolves the search instruments for one algorithm under
// the "alloc/<algo>/" prefix. A nil registry returns nil, the disabled
// state every method of SearchMetrics accepts.
func NewSearchMetrics(r *metrics.Registry, algo string) *SearchMetrics {
	if r == nil {
		return nil
	}
	p := "alloc/" + algo + "/"
	return &SearchMetrics{
		WindowsFound:      r.Counter(p + "windows_found_total"),
		WindowsMissed:     r.Counter(p + "windows_missed_total"),
		SlotsExamined:     r.Counter(p + "slots_examined_total"),
		SlotsRejected:     r.Counter(p + "slots_rejected_total"),
		CandidatesEvicted: r.Counter(p + "candidates_evicted_total"),
		BudgetChecks:      r.Counter(p + "budget_checks_total"),
		Passes:            r.Counter(p + "passes_total"),
		Searches:          r.Counter(p + "searches_total"),
		ScanLength:        r.Histogram(p+"scan_length_slots", metrics.ExpBuckets(8, 2, 8)),
		Index:             slot.NewIndexMetrics(r, p+"index/"),
		IndexScans:        r.Counter(p + "index/scans_total"),
		BucketsVisited:    r.Counter(p + "index/buckets_visited_total"),
		BucketsPruned:     r.Counter(p + "index/buckets_pruned_total"),
		SlotsSkipped:      r.Counter(p + "index/slots_skipped_total"),
	}
}

// indexMetrics returns the index maintenance instruments; nil when disabled.
func (m *SearchMetrics) indexMetrics() *slot.IndexMetrics {
	if m == nil {
		return nil
	}
	return m.Index
}

// probeDone records the traversal work of one committed indexed scan.
func (m *SearchMetrics) probeDone(p slot.ScanStats) {
	if m == nil {
		return
	}
	m.IndexScans.Inc()
	m.BucketsVisited.Add(int64(p.BucketsVisited))
	m.BucketsPruned.Add(int64(p.BucketsPruned))
	m.SlotsSkipped.Add(int64(p.SlotsSkipped))
}

// scanDone records one committed per-job scan outcome.
func (m *SearchMetrics) scanDone(st Stats, found bool) {
	if m == nil {
		return
	}
	if found {
		m.WindowsFound.Inc()
	} else {
		m.WindowsMissed.Inc()
	}
	m.SlotsExamined.Add(int64(st.SlotsExamined))
	m.SlotsRejected.Add(int64(st.SlotsRejected))
	m.CandidatesEvicted.Add(int64(st.CandidatesEvicted))
	m.BudgetChecks.Add(int64(st.BudgetChecks))
	m.ScanLength.Observe(int64(st.SlotsExamined))
}

// passDone records one completed pass over the batch.
func (m *SearchMetrics) passDone() {
	if m == nil {
		return
	}
	m.Passes.Inc()
}

// searchStarted records one FindAlternatives-level invocation.
func (m *SearchMetrics) searchStarted() {
	if m == nil {
		return
	}
	m.Searches.Inc()
}
