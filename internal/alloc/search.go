package alloc

import (
	"fmt"

	"ecosched/internal/job"
	"ecosched/internal/slot"
)

// SearchOptions tunes the multi-pass alternative search.
type SearchOptions struct {
	// MaxPasses caps the number of passes over the batch; 0 means no cap
	// (the search ends when a full pass finds nothing, which always
	// terminates because every found window strictly shrinks the vacant
	// time in the list).
	MaxPasses int
	// MaxAlternativesPerJob stops searching for a job once it has this
	// many alternatives; 0 means unlimited. Jobs at their cap are skipped
	// but the pass continues for the others.
	MaxAlternativesPerJob int
	// FirstOnly limits the search to a single pass collecting at most one
	// alternative per job — the degenerate mode most classical schedulers
	// use, kept for the search-passes ablation.
	FirstOnly bool
	// Prebuilt, when non-nil, is a ready-made index the search uses instead
	// of building one over a clone of the input list — the grid's live
	// store hands out such clones so the steady-state path never pays a
	// NewIndex (gridsim.VacantView). The caller transfers ownership: the
	// search mutates the index (and the list backing it — Remaining aliases
	// Prebuilt.List()) and the input list argument must be that same list.
	// Scan results do not depend on the index's bucket layout (the
	// scan-order contract), so a prebuilt index whose tiling reflects its
	// maintenance history returns byte-identical windows to a fresh build.
	// Ignored — the historical clone-and-build path runs — when the
	// algorithm has no indexed scan.
	Prebuilt *slot.Index
	// Metrics, when non-nil, receives the search's observability counters
	// (windows found, scan lengths, pass counts). Instrumentation never
	// influences which windows are found, and a nil value costs nothing
	// (see internal/metrics).
	Metrics *SearchMetrics
}

// SearchResult is the outcome of FindAlternatives: for every job of the
// batch, the list of execution alternatives found, plus search-wide
// accounting.
type SearchResult struct {
	// Algorithm is the name of the window-search algorithm used.
	Algorithm string
	// Alternatives maps job name to that job's windows, in discovery
	// order (earlier passes first). Windows are pairwise disjoint across
	// the whole map.
	Alternatives map[string][]*slot.Window
	// Passes is the number of full passes performed, including the final
	// empty one that terminated the search — except when every job had
	// already reached MaxAlternativesPerJob, in which case the would-be
	// pass could not scan anything and is neither run nor counted.
	Passes int
	// Stats accumulates the per-search counters across all window
	// searches.
	Stats Stats
	// Remaining is the vacant list after all subtractions. The input list
	// is never modified.
	Remaining *slot.List
}

// TotalAlternatives returns the number of windows found across all jobs.
func (r *SearchResult) TotalAlternatives() int {
	var n int
	for _, ws := range r.Alternatives {
		n += len(ws)
	}
	return n
}

// AlternativesPerJob returns the mean number of alternatives per job
// (0 for an empty batch).
func (r *SearchResult) AlternativesPerJob() float64 {
	if len(r.Alternatives) == 0 {
		return 0
	}
	return float64(r.TotalAlternatives()) / float64(len(r.Alternatives))
}

// AllJobsCovered reports whether every job of the batch has at least one
// alternative — the paper's criterion for keeping an experiment.
func (r *SearchResult) AllJobsCovered(batch *job.Batch) bool {
	for _, j := range batch.Jobs() {
		if len(r.Alternatives[j.Name]) == 0 {
			return false
		}
	}
	return true
}

// FindAlternatives runs the paper's Section 2 scheme: scan the batch in
// priority order, find one window per job per pass with the given algorithm,
// subtract each found window from the working copy of the vacant list, and
// repeat until a full pass finds nothing (or an option cap is hit).
//
// Because every window is subtracted before the next search, the returned
// alternatives never intersect in processor time: any per-job selection the
// optimizer makes is simultaneously feasible without revising other jobs'
// assignments.
func FindAlternatives(algo Algorithm, list *slot.List, batch *job.Batch, opts SearchOptions) (*SearchResult, error) {
	if algo == nil {
		return nil, fmt.Errorf("alloc: nil algorithm")
	}
	if list == nil {
		return nil, fmt.Errorf("alloc: nil slot list")
	}
	if batch == nil || batch.Len() == 0 {
		return nil, fmt.Errorf("alloc: empty batch")
	}

	// newScanner decides the working list and the index lifetime: a caller-
	// supplied prebuilt index is adopted as-is (its list IS the working
	// list), otherwise an index is built once over a clone of the input.
	// Either way the index is maintained incrementally through every window
	// subtraction, so later passes pay bucket-local updates, never a
	// rebuild. An algorithm without an indexed scan falls back to the
	// raw-list oracle over a clone.
	working, scan, subtract := newScanner(algo, list, opts)
	res, err := searchPasses(algo.Name(), batch, opts, scan, subtract)
	if err != nil {
		return nil, err
	}
	res.Remaining = working
	return res, nil
}

// searchPasses is the pass loop both drivers share (FindAlternatives and
// FindAlternativesSharded): scan the batch in priority order, record and
// subtract every found window, and repeat until a pass finds nothing or an
// option cap is hit. The caller fills in Remaining.
func searchPasses(algo string, batch *job.Batch, opts SearchOptions,
	scan func(*job.Job) (*slot.Window, Stats, bool), subtract func(*slot.Window) error) (*SearchResult, error) {
	res := &SearchResult{
		Algorithm:    algo,
		Alternatives: make(map[string][]*slot.Window, batch.Len()),
	}
	maxPasses := opts.MaxPasses
	perJobCap := opts.MaxAlternativesPerJob
	if opts.FirstOnly {
		maxPasses = 1
		perJobCap = 1
	}
	opts.Metrics.searchStarted()

	for pass := 0; ; pass++ {
		if maxPasses > 0 && pass >= maxPasses {
			break
		}
		// A pass in which every job already holds its cap of alternatives
		// would skip every job and find nothing: don't run it, don't count
		// it.
		if perJobCap > 0 {
			capped := true
			for _, j := range batch.Jobs() {
				if len(res.Alternatives[j.Name]) < perJobCap {
					capped = false
					break
				}
			}
			if capped {
				break
			}
		}
		res.Passes++
		opts.Metrics.passDone()
		foundAny := false
		for _, j := range batch.Jobs() {
			if perJobCap > 0 && len(res.Alternatives[j.Name]) >= perJobCap {
				continue
			}
			w, stats, ok := scan(j)
			res.Stats.Add(stats)
			opts.Metrics.scanDone(stats, ok)
			if !ok {
				continue
			}
			if err := w.Validate(); err != nil {
				return nil, fmt.Errorf("alloc: %s produced invalid window: %w", algo, err)
			}
			if err := subtract(w); err != nil {
				return nil, fmt.Errorf("alloc: subtracting window for %s: %w", j.Name, err)
			}
			res.Alternatives[j.Name] = append(res.Alternatives[j.Name], w)
			foundAny = true
		}
		if !foundAny {
			break
		}
	}
	return res, nil
}

// newScanner binds the working list, the per-job window scan, and the window
// subtraction of a driver to either the indexed path or, for an algorithm
// without an indexed scan, the linear oracle.
//
// Index-lifetime contract: exactly one index serves the whole search, and it
// owns every mutation of the working list — subtraction goes through it so
// its buckets stay consistent. Where that index comes from varies: a caller-
// supplied opts.Prebuilt is adopted (ownership transfer; its List() becomes
// the working list and is mutated in place), otherwise the input list is
// cloned and an index built over the clone. The linear path (an algorithm
// without an indexed scan) has no index at all and mutates a clone directly;
// a Prebuilt is ignored there, never half-used. The probe
// records traversal work only when metrics are attached, keeping the
// disabled path allocation-free.
func newScanner(algo Algorithm, list *slot.List, opts SearchOptions) (
	working *slot.List, scan func(*job.Job) (*slot.Window, Stats, bool), subtract func(*slot.Window) error) {
	ia, indexed := algo.(IndexedAlgorithm)
	if !indexed {
		w := list.Clone()
		return w, func(j *job.Job) (*slot.Window, Stats, bool) { return algo.FindWindow(w, j) },
			w.SubtractWindow
	}
	ix := opts.Prebuilt
	if ix != nil {
		ix.SetMetrics(opts.Metrics.indexMetrics())
	} else {
		ix = slot.NewIndex(list.Clone(), opts.Metrics.indexMetrics())
	}
	var probe *slot.ScanStats
	if opts.Metrics != nil {
		probe = &slot.ScanStats{}
	}
	return ix.List(), func(j *job.Job) (*slot.Window, Stats, bool) {
		if probe != nil {
			*probe = slot.ScanStats{}
		}
		w, stats, ok := ia.FindWindowIndexed(ix, j, probe)
		if probe != nil {
			opts.Metrics.probeDone(*probe)
		}
		return w, stats, ok
	}, ix.SubtractWindow
}

// FindFirst returns only the earliest alternative per job — one pass, one
// window each — which is what a non-multi-variant scheduler would use.
func FindFirst(algo Algorithm, list *slot.List, batch *job.Batch) (*SearchResult, error) {
	return FindAlternatives(algo, list, batch, SearchOptions{FirstOnly: true})
}
