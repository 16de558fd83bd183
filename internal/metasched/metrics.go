package metasched

import (
	"ecosched/internal/dp"
	"ecosched/internal/metrics"
	"ecosched/internal/sim"
)

// schedMetrics holds the scheduler's pre-resolved instruments. All fields
// are nil when observability is off (nil Config.Metrics), which makes every
// observation a no-op branch — the scheduling decisions are identical with
// metrics on and off, a contract the metasched differential tests pin over
// 20 seeded sessions.
//
// There is deliberately no wall-clock timing here: per-iteration "phase
// timings" are recorded as deterministic work units (slots published, slots
// examined, frontier points, windows committed) and latency-like quantities
// on the simulated clock (wait ticks, plan ticks), so two identical seeded
// sessions snapshot byte-identically. DESIGN.md §10 spells out the argument.
type schedMetrics struct {
	iterations *metrics.Counter
	batchJobs  *metrics.Histogram
	// Outcome counters per job decision.
	placed       *metrics.Counter
	postponed    *metrics.Counter
	dropped      *metrics.Counter
	requeued     *metrics.Counter
	infeasible   *metrics.Counter
	alternatives *metrics.Counter
	// Sim-time distributions of the schedule's quality.
	waitTicks     *metrics.Histogram
	planTimeTicks *metrics.Histogram
	planCost      *metrics.Histogram
	// Per-phase deterministic work distributions, one observation per
	// iteration that ran the phase.
	phasePublishSlots   *metrics.Histogram
	phaseSearchSlots    *metrics.Histogram
	phaseOptimizePoints *metrics.Histogram
	phaseCommitWindows  *metrics.Histogram
	// Plan-apply outcomes: fast-path applies whose snapshot epoch was still
	// current, re-validated applies whose snapshot had been overtaken, and
	// individual windows the commit rejected as stale.
	planFastPath    *metrics.Counter
	planRevalidated *metrics.Counter
	planStaleWins   *metrics.Counter
	// Retry-policy outcomes for environment-cancelled jobs.
	retryRequeues     *metrics.Counter
	retryBackoffTicks *metrics.Histogram
	retryRelaxations  *metrics.Counter
	retryDropExhaust  *metrics.Counter
	retryDropDeadline *metrics.Counter
	// Optimizer engine selection.
	engineFrontier *metrics.Counter
	engineGrid     *metrics.Counter
	// frontier feeds the dp-level accounting of every built frontier.
	frontier *dp.FrontierMetrics
}

// newSchedMetrics resolves the scheduler instruments under the "metasched/"
// prefix. A nil registry returns nil; every method below accepts that.
func newSchedMetrics(r *metrics.Registry) *schedMetrics {
	if r == nil {
		return nil
	}
	return &schedMetrics{
		iterations:          r.Counter("metasched/iterations_total"),
		batchJobs:           r.Histogram("metasched/batch_jobs", metrics.LinearBuckets(1, 1, 8)),
		placed:              r.Counter("metasched/jobs_placed_total"),
		postponed:           r.Counter("metasched/jobs_postponed_total"),
		dropped:             r.Counter("metasched/jobs_dropped_total"),
		requeued:            r.Counter("metasched/jobs_requeued_total"),
		infeasible:          r.Counter("metasched/plans_infeasible_total"),
		alternatives:        r.Counter("metasched/alternatives_found_total"),
		waitTicks:           r.Histogram("metasched/job_wait_ticks", metrics.ExpBuckets(50, 2, 8)),
		planTimeTicks:       r.Histogram("metasched/plan_time_ticks", metrics.ExpBuckets(50, 2, 8)),
		planCost:            r.Histogram("metasched/plan_cost_credits", metrics.ExpBuckets(125, 2, 9)),
		phasePublishSlots:   r.Histogram("metasched/phase/publish_slots", metrics.ExpBuckets(8, 2, 8)),
		phaseSearchSlots:    r.Histogram("metasched/phase/search_slots_examined", metrics.ExpBuckets(32, 2, 10)),
		phaseOptimizePoints: r.Histogram("metasched/phase/optimize_frontier_points", metrics.ExpBuckets(16, 4, 7)),
		phaseCommitWindows:  r.Histogram("metasched/phase/commit_windows", metrics.LinearBuckets(1, 1, 8)),
		planFastPath:        r.Counter("metasched/plan/applied_fastpath_total"),
		planRevalidated:     r.Counter("metasched/plan/applied_revalidated_total"),
		planStaleWins:       r.Counter("metasched/plan/windows_stale_total"),
		retryRequeues:       r.Counter("metasched/retry/requeues_total"),
		retryBackoffTicks:   r.Histogram("metasched/retry/backoff_ticks", metrics.ExpBuckets(25, 2, 9)),
		retryRelaxations:    r.Counter("metasched/retry/relaxations_total"),
		retryDropExhaust:    r.Counter("metasched/retry/dropped_exhausted_total"),
		retryDropDeadline:   r.Counter("metasched/retry/dropped_deadline_total"),
		engineFrontier:      r.Counter("metasched/engine/frontier_total"),
		engineGrid:          r.Counter("metasched/engine/grid_total"),
		frontier:            dp.NewFrontierMetrics(r),
	}
}

func (m *schedMetrics) iterationStarted(batch int) {
	if m == nil {
		return
	}
	m.iterations.Inc()
	m.batchJobs.Observe(int64(batch))
}

func (m *schedMetrics) published(slots int) {
	if m == nil {
		return
	}
	m.phasePublishSlots.Observe(int64(slots))
}

func (m *schedMetrics) searched(slotsExamined, alternatives int) {
	if m == nil {
		return
	}
	m.phaseSearchSlots.Observe(int64(slotsExamined))
	m.alternatives.Add(int64(alternatives))
}

func (m *schedMetrics) planChosen(t sim.Duration, c sim.Money, windows int) {
	if m == nil {
		return
	}
	m.planTimeTicks.Observe(int64(t))
	// Money is observed in whole credits; the sub-credit fraction is noise
	// at histogram resolution.
	m.planCost.Observe(int64(c))
	m.phaseCommitWindows.Observe(int64(windows))
}

func (m *schedMetrics) jobPlaced(wait sim.Duration) {
	if m == nil {
		return
	}
	m.placed.Inc()
	m.waitTicks.Observe(int64(wait))
}

func (m *schedMetrics) jobPostponed() {
	if m == nil {
		return
	}
	m.postponed.Inc()
}

func (m *schedMetrics) jobDropped() {
	if m == nil {
		return
	}
	m.dropped.Inc()
}

func (m *schedMetrics) jobsRequeued(n int) {
	if m == nil {
		return
	}
	m.requeued.Add(int64(n))
}

func (m *schedMetrics) retryRequeued(backoff sim.Duration) {
	if m == nil {
		return
	}
	m.retryRequeues.Inc()
	m.retryBackoffTicks.Observe(int64(backoff))
}

func (m *schedMetrics) retryRelaxed() {
	if m == nil {
		return
	}
	m.retryRelaxations.Inc()
}

func (m *schedMetrics) retryDropped(deadline bool) {
	if m == nil {
		return
	}
	if deadline {
		m.retryDropDeadline.Inc()
	} else {
		m.retryDropExhaust.Inc()
	}
}

// planApplied records which apply path a non-nil plan took: stale means the
// grid mutated since the plan's snapshot and every window was re-validated;
// otherwise the epoch proved the snapshot exact (fast path).
func (m *schedMetrics) planApplied(stale bool) {
	if m == nil {
		return
	}
	if stale {
		m.planRevalidated.Inc()
	} else {
		m.planFastPath.Inc()
	}
}

// planWindowStale counts one chosen window rejected by the commit.
func (m *schedMetrics) planWindowStale() {
	if m == nil {
		return
	}
	m.planStaleWins.Inc()
}

func (m *schedMetrics) planInfeasible() {
	if m == nil {
		return
	}
	m.infeasible.Inc()
}

// serviceMetrics holds the continuous-service instruments under the
// "metasched/service/" prefix, following the same nil-safe contract as
// schedMetrics: nil when observability is off, and never influencing a
// scheduling decision (the service differential pins transcripts with
// metrics on and off byte-identical).
type serviceMetrics struct {
	evalsEnqueued  *metrics.Counter
	evalsCoalesced *metrics.Counter
	evalRequeues   *metrics.Counter
	rounds         *metrics.Counter
	roundEvals     *metrics.Histogram
	queueGauge     *metrics.Gauge
	queueMax       *metrics.Gauge
	lagTicks       *metrics.Histogram
	requeueBackoff *metrics.Histogram
}

// newServiceMetrics resolves the service instruments; nil registry → nil.
func newServiceMetrics(r *metrics.Registry) *serviceMetrics {
	if r == nil {
		return nil
	}
	return &serviceMetrics{
		evalsEnqueued:  r.Counter("metasched/service/evals_enqueued_total"),
		evalsCoalesced: r.Counter("metasched/service/evals_coalesced_total"),
		evalRequeues:   r.Counter("metasched/service/eval_requeues_total"),
		rounds:         r.Counter("metasched/service/rounds_total"),
		roundEvals:     r.Histogram("metasched/service/round_evals", metrics.LinearBuckets(1, 1, 8)),
		queueGauge:     r.Gauge("metasched/service/eval_queue_depth"),
		queueMax:       r.Gauge("metasched/service/eval_queue_depth_max"),
		lagTicks:       r.Histogram("metasched/service/eval_lag_ticks", metrics.ExpBuckets(25, 2, 9)),
		requeueBackoff: r.Histogram("metasched/service/requeue_backoff_ticks", metrics.ExpBuckets(25, 2, 9)),
	}
}

func (m *serviceMetrics) enqueued() {
	if m == nil {
		return
	}
	m.evalsEnqueued.Inc()
}

func (m *serviceMetrics) coalesced() {
	if m == nil {
		return
	}
	m.evalsCoalesced.Inc()
}

// depth tracks the current and high-water queue depth after any change.
func (m *serviceMetrics) depth(n int) {
	if m == nil {
		return
	}
	m.queueGauge.Set(int64(n))
	m.queueMax.SetMax(int64(n))
}

// consumed records one evaluation leaving the queue after lag sim-ticks.
func (m *serviceMetrics) consumed(lag sim.Duration) {
	if m == nil {
		return
	}
	m.lagTicks.Observe(int64(lag))
}

// roundStarted records a round consuming n evaluations.
func (m *serviceMetrics) roundStarted(n int) {
	if m == nil {
		return
	}
	m.rounds.Inc()
	m.roundEvals.Observe(int64(n))
}

// requeued records a stale-rejection requeue with its backoff delay.
func (m *serviceMetrics) requeued(backoff sim.Duration) {
	if m == nil {
		return
	}
	m.evalRequeues.Inc()
	m.requeueBackoff.Observe(int64(backoff))
}

// engineUsed records the frontier build of this iteration (its per-build
// accounting) and whether the money-grid engine answered the policy.
func (m *schedMetrics) engineUsed(fr *dp.Frontier, grid bool) {
	if m == nil {
		return
	}
	m.engineFrontier.Inc()
	fr.Observe(m.frontier)
	m.phaseOptimizePoints.Observe(int64(fr.Size()))
	if grid {
		m.engineGrid.Inc()
	}
}
