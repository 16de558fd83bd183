package metasched

import (
	"ecosched/internal/dp"
	"ecosched/internal/job"
)

// UseDenseDP routes s's combination optimizer through the dense reference
// tables of internal/dp instead of the sparse frontier. It is the oracle side
// of the frontier-vs-dense differentials; call it before the first iteration.
func UseDenseDP(s *Scheduler) {
	s.denseOracle = func(batch *job.Batch, alts dp.Alternatives) (*dp.Plan, error) {
		limits, err := dp.ComputeLimitsDense(batch, alts)
		if err != nil {
			return nil, err
		}
		switch {
		case s.cfg.Policy == MinimizeCost:
			return dp.MinimizeCostDense(batch, alts, limits.Quota)
		case s.cfg.MaxBudgetStates > 0:
			return dp.MinimizeTimeGrid(batch, alts, limits.Budget, budgetGrid(limits.Budget, s.cfg.MaxBudgetStates))
		default:
			return dp.MinimizeTimeDense(batch, alts, limits.Budget)
		}
	}
}

// RunSteps runs one iteration as the bare step sequence BeginIteration →
// Plan → Apply → Finish with nothing interleaved and no service around it.
// It is the reference the service-vs-steps differential holds Service.Tick
// to, and the driver of tests that exercise the scheduler alone.
func RunSteps(s *Scheduler) (*IterationReport, error) {
	it, err := s.BeginIteration()
	if err != nil {
		return nil, err
	}
	if err := it.Plan(); err != nil {
		return nil, err
	}
	if err := it.Apply(); err != nil {
		return nil, err
	}
	return it.Finish()
}
