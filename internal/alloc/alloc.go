// Package alloc implements the paper's primary contribution: slot selection
// and co-allocation algorithms for economic scheduling.
//
// Two single-window search algorithms are provided, both scanning the ordered
// vacant-slot list front to back exactly once (Section 3):
//
//   - ALP (Algorithm based on Local Price): every slot of the window must
//     cost at most the request's per-time-unit price cap C.
//   - AMP (Algorithm based on Maximal job Price): individual slots may exceed
//     C as long as the whole window's usage cost stays within the job budget
//     S = ρ·C·t·N.
//
// On top of a single-window search, FindAlternatives implements the paper's
// multi-pass scheme from Section 2: visit the batch jobs in priority order,
// subtract every found window from the vacant list, and repeat passes until a
// full pass finds nothing — producing, for each job, a set of pairwise
// disjoint execution alternatives for the batch optimizer (internal/dp).
package alloc

import (
	"fmt"

	"ecosched/internal/job"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
)

// Stats counts the work performed by a window search. The counters make the
// linear-complexity claim of Section 3 checkable without timing noise: for
// both algorithms SlotsExamined never exceeds the list length per search and
// every candidate is evicted at most once.
type Stats struct {
	// SlotsExamined is the number of list entries visited by the scan.
	SlotsExamined int
	// SlotsRejected counts slots failing the static suitability conditions
	// (performance, length, and — for ALP — the per-slot price cap).
	SlotsRejected int
	// CandidatesEvicted counts window candidates dropped because their
	// remaining length expired as the window start advanced (step 3°).
	CandidatesEvicted int
	// BudgetChecks counts AMP's cheapest-N budget evaluations.
	BudgetChecks int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.SlotsExamined += other.SlotsExamined
	s.SlotsRejected += other.SlotsRejected
	s.CandidatesEvicted += other.CandidatesEvicted
	s.BudgetChecks += other.BudgetChecks
}

// Algorithm is a single-window slot search: given the current vacant list
// and a job, find one suitable co-allocation window (the earliest one the
// algorithm's policy admits) or report that none exists.
//
// Implementations must not modify the list; window subtraction is the
// caller's responsibility (see FindAlternatives).
type Algorithm interface {
	// Name returns the algorithm's short name ("ALP" or "AMP").
	Name() string
	// FindWindow searches list for a window satisfying j's request.
	// It returns ok=false when no window exists on the current list.
	FindWindow(list *slot.List, j *job.Job) (w *slot.Window, stats Stats, ok bool)
}

// IndexedAlgorithm is an Algorithm that can additionally run its scan
// against a slot.Index, visiting only the slots the index's buckets cannot
// dismiss. Both entry points are total functions of the same slot sequence,
// so for any list they return byte-identical windows and Stats — the
// scan-equivalence contract the oracle suites (indexed_test.go and the
// metasched differentials) pin down:
//
//   - FindWindowLinear is the paper's front-to-back scan of the raw list,
//     kept verbatim as the reference oracle;
//   - FindWindowIndexed is the production path, reached through
//     FindAlternatives. Tests reach the oracle by wrapping the algorithm
//     in a type that exposes only Name and FindWindow, which sends the
//     drivers down their linear path.
type IndexedAlgorithm interface {
	Algorithm
	// FindWindowLinear searches the raw list front to back — the oracle.
	FindWindowLinear(list *slot.List, j *job.Job) (w *slot.Window, stats Stats, ok bool)
	// FindWindowIndexed searches through the index. probe, when non-nil,
	// accumulates the index traversal work; it never influences the result.
	FindWindowIndexed(ix *slot.Index, j *job.Job, probe *slot.ScanStats) (w *slot.Window, stats Stats, ok bool)
}

// candidate is a slot currently inside the sliding window under
// construction, with its precomputed node-local runtime and usage cost.
type candidate struct {
	s slot.Slot
	// runtime is the task execution time on the slot's node.
	runtime sim.Duration
	// cost is the usage cost price × runtime.
	cost sim.Money
	// deadline is the latest window start this slot can still host:
	// slot end − runtime.
	deadline sim.Time
	// seq is a unique id within one search, for the top-K tracker.
	seq int
}

func newCandidate(s slot.Slot, req job.ResourceRequest, seq int) candidate {
	rt := s.Runtime(req.Time)
	// The latest feasible window start is bounded by the slot's end and,
	// when the request carries a deadline, by the completion bound too.
	latest := s.End()
	if req.Deadline > 0 && req.Deadline < latest {
		latest = req.Deadline
	}
	return candidate{
		s:        s,
		runtime:  rt,
		cost:     s.Price * sim.Money(rt),
		deadline: latest.Add(-sim.Duration(rt)),
		seq:      seq,
	}
}

// suits checks the static conditions 2°a and 2°b — performance and length
// from the slot's own start — plus the request's non-performance node
// requirements (RAM, disk, OS, tags; Section 2's resource-request
// characteristics).
func suits(s slot.Slot, req job.ResourceRequest) bool {
	return s.Performance() >= req.MinPerformance && suitsBeyondPerformance(s, req)
}

// suitsBeyondPerformance is suits without the performance floor — the part
// an indexed scan still has to evaluate per slot after the slot.Index
// prefiltered performance (and, for ALP, price). Keeping it a separate
// function makes the linear scan and the indexed scan share one source of
// truth for the suitability conditions.
func suitsBeyondPerformance(s slot.Slot, req job.ResourceRequest) bool {
	if !req.Needs.Empty() && !s.Node.Satisfies(req.Needs) {
		return false
	}
	rt := s.Runtime(req.Time)
	if s.Length() < rt {
		return false
	}
	// A deadline-carrying request needs some start inside the slot whose
	// completion meets the deadline.
	if req.Deadline > 0 && s.Start().Add(rt) > req.Deadline {
		return false
	}
	return true
}

// pastDeadline reports whether the scan can stop: with starts non-decreasing
// and a positive deadline, no slot starting at or after the deadline can
// host any task.
func pastDeadline(s slot.Slot, req job.ResourceRequest) bool {
	return req.Deadline > 0 && s.Start() >= req.Deadline
}

// buildWindow materializes a window starting at start from the given
// candidates. Callers guarantee every candidate can host from start.
func buildWindow(jobName string, start sim.Time, chosen []candidate) *slot.Window {
	w := &slot.Window{JobName: jobName, Placements: make([]slot.Placement, 0, len(chosen))}
	for _, c := range chosen {
		w.Placements = append(w.Placements, slot.Placement{
			Source: c.s,
			Used:   sim.Interval{Start: start, End: start.Add(c.runtime)},
		})
	}
	return w
}

// scanLimit returns the exclusive rank bound of an indexed scan: the rank a
// deadline-carrying linear scan breaks at (its pastDeadline check fires on
// the first slot starting at or after the deadline), or the list length when
// the request has no deadline.
func scanLimit(ix *slot.Index, req job.ResourceRequest) (limit, n int) {
	n = ix.Len()
	limit = n
	if req.Deadline > 0 {
		limit = ix.RankAtOrAfter(req.Deadline)
	}
	return limit, n
}

// finishScanStats fills the examined/rejected counters of an indexed scan,
// reproducing the linear scan's arithmetic exactly. The linear scan counts
// every visited slot in SlotsExamined and every visited-but-not-accepted
// slot in SlotsRejected, so both are functions of the stopping rank and the
// accepted count alone:
//
//   - success at rank r: r+1 slots visited, r+1−accepted rejected;
//   - failure with a deadline break at rank limit < n: the breaking slot is
//     visited (limit+1 examined) but not rejected (limit−accepted);
//   - failure with the list exhausted: n examined, limit−accepted rejected
//     (limit == n here).
func finishScanStats(stats *Stats, req job.ResourceRequest, limit, n, stopRank, accepted int, found bool) {
	if found {
		stats.SlotsExamined = stopRank + 1
		stats.SlotsRejected = stopRank + 1 - accepted
		return
	}
	if req.Deadline > 0 && limit < n {
		stats.SlotsExamined = limit + 1
	} else {
		stats.SlotsExamined = n
	}
	stats.SlotsRejected = limit - accepted
}

// validateInput rejects malformed requests up front so the scan loops can
// assume a well-formed job.
func validateInput(list *slot.List, j *job.Job) error {
	if list == nil {
		return fmt.Errorf("alloc: nil slot list")
	}
	if err := j.Validate(); err != nil {
		return fmt.Errorf("alloc: %w", err)
	}
	return nil
}
