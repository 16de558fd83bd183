package experiments

import (
	"fmt"

	"ecosched/internal/alloc"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/stats"
)

// DynamicsConfig parameterizes the end-to-end dynamics study: full
// metascheduler sessions on the grid simulator with a node failure injected
// mid-session, measuring how well each algorithm's schedule recovers
// (Section 7: "changes in the number of jobs for servicing, …, possible
// failures of computational nodes").
type DynamicsConfig struct {
	Seed     uint64
	Sessions int
	// Nodes is the grid size per session (default 12).
	Nodes int
	// JobsPerSession is the submitted job count (default 8).
	JobsPerSession int
	// Iterations bounds each session (default 10).
	Iterations int
}

func (c *DynamicsConfig) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 12
	}
	if c.JobsPerSession <= 0 {
		c.JobsPerSession = 8
	}
	if c.Iterations <= 0 {
		c.Iterations = 10
	}
}

// DynamicsPoint aggregates one algorithm's session outcomes.
type DynamicsPoint struct {
	Algorithm string
	// PlacedBeforeFailure and Requeued count jobs over all sessions.
	PlacedBeforeFailure int
	Requeued            int
	// Recovered counts re-queued jobs successfully re-placed on the
	// surviving nodes.
	Recovered int
	// FinalPlaced counts jobs holding a reservation at session end.
	FinalPlaced int
	Submitted   int
	// ExtraWait measures, for recovered jobs, the start-time slip caused
	// by the failure (new start − old start).
	ExtraWait stats.Online
}

// RecoveryRate returns Recovered / Requeued (1 when nothing was requeued).
func (p *DynamicsPoint) RecoveryRate() float64 {
	if p.Requeued == 0 {
		return 1
	}
	return float64(p.Recovered) / float64(p.Requeued)
}

// CompletionRate returns FinalPlaced / Submitted.
func (p *DynamicsPoint) CompletionRate() float64 {
	if p.Submitted == 0 {
		return 0
	}
	return float64(p.FinalPlaced) / float64(p.Submitted)
}

// DynamicsStudy runs failure-injected metascheduler sessions for ALP and
// AMP on identical grids and job streams.
func DynamicsStudy(cfg DynamicsConfig) (alp, amp *DynamicsPoint, err error) {
	if cfg.Sessions <= 0 {
		return nil, nil, fmt.Errorf("experiments: non-positive session count %d", cfg.Sessions)
	}
	cfg.defaults()
	alp = &DynamicsPoint{Algorithm: "ALP"}
	amp = &DynamicsPoint{Algorithm: "AMP"}
	root := sim.NewRNG(cfg.Seed)
	for sess := 0; sess < cfg.Sessions; sess++ {
		seed := root.Uint64()
		for _, run := range []struct {
			algo  alloc.Algorithm
			point *DynamicsPoint
		}{
			{alloc.ALP{}, alp},
			{alloc.AMP{}, amp},
		} {
			if err := dynamicsSession(seed, cfg, run.algo, run.point); err != nil {
				return nil, nil, err
			}
		}
	}
	return alp, amp, nil
}

// dynamicsSession plays one session: schedule a burst of jobs, fail the
// busiest node after the first iteration, keep iterating, and account for
// the recovery.
func dynamicsSession(seed uint64, cfg DynamicsConfig, algo alloc.Algorithm, point *DynamicsPoint) error {
	rng := sim.NewRNG(seed)
	pricing := resource.PaperPricing()
	nodes := make([]*resource.Node, 0, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		perf := rng.FloatBetween(1, 3)
		nodes = append(nodes, &resource.Node{
			Name:        fmt.Sprintf("n%d", i+1),
			Performance: perf,
			Price:       pricing.Sample(rng, perf),
		})
	}
	pool, err := resource.NewPool(nodes)
	if err != nil {
		return err
	}
	grid, err := gridsim.New(pool)
	if err != nil {
		return err
	}
	if err := grid.Populate(gridsim.LocalLoad{MeanGap: 150, DurMin: 30, DurMax: 120}, 0, 4000, rng.Split()); err != nil {
		return err
	}
	sched, err := metasched.New(metasched.Config{
		Algorithm: algo,
		Policy:    metasched.MinimizeTime,
		Horizon:   1200,
		Step:      150,
		MaxBatch:  4,
	}, grid)
	if err != nil {
		return err
	}
	for i := 0; i < cfg.JobsPerSession; i++ {
		j := &job.Job{
			Name:     fmt.Sprintf("job%d", i+1),
			Priority: i + 1,
			Request: job.ResourceRequest{
				Nodes:          rng.IntBetween(1, 3),
				Time:           sim.Duration(rng.IntBetween(50, 150)),
				MinPerformance: rng.FloatBetween(1, 1.8),
				MaxPrice:       pricing.BasePrice(1.5) * sim.Money(rng.FloatBetween(1.0, 1.4)),
			},
		}
		if err := sched.Submit(j); err != nil {
			return err
		}
	}
	point.Submitted += cfg.JobsPerSession

	// startOf tracks the latest committed start per job.
	startOf := map[string]sim.Time{}
	record := func(rep *metasched.IterationReport) {
		for _, p := range rep.Placed {
			startOf[p.Job.Name] = p.Window.Window.Start()
		}
	}

	rep, err := sched.RunIteration()
	if err != nil {
		return err
	}
	record(rep)
	point.PlacedBeforeFailure += len(rep.Placed)

	// Fail the node hosting the most reservations.
	victim := busiestNode(grid)
	preStart := map[string]sim.Time{}
	for k, v := range startOf {
		preStart[k] = v
	}
	requeued, err := sched.HandleNodeFailure(victim)
	if err != nil {
		return err
	}
	point.Requeued += len(requeued)
	requeuedSet := map[string]bool{}
	for _, name := range requeued {
		requeuedSet[name] = true
		delete(startOf, name)
	}

	for it := 1; it < cfg.Iterations && sched.QueueLength() > 0; it++ {
		rep, err := sched.RunIteration()
		if err != nil {
			return err
		}
		record(rep)
		for _, p := range rep.Placed {
			if requeuedSet[p.Job.Name] {
				point.Recovered++
				if old, ok := preStart[p.Job.Name]; ok {
					slip := p.Window.Window.Start().Sub(old)
					if slip < 0 {
						slip = 0
					}
					point.ExtraWait.Add(float64(slip))
				}
				delete(requeuedSet, p.Job.Name)
			}
		}
	}
	point.FinalPlaced += len(startOf)
	return nil
}

// busiestNode returns the label of the node hosting the most VO
// reservations (ties broken by node order).
func busiestNode(grid *gridsim.Grid) string {
	best, bestCount := grid.Pool().Node(0).Label(), -1
	for _, n := range grid.Pool().Nodes() {
		count := 0
		for _, t := range grid.Tasks(n.ID) {
			if !t.Local {
				count++
			}
		}
		if count > bestCount {
			best, bestCount = n.Label(), count
		}
	}
	return best
}

// RenderDynamics prints the study.
func RenderDynamics(alp, amp *DynamicsPoint) string {
	t := stats.NewTable("metric", "ALP", "AMP")
	t.AddRow("jobs submitted", alp.Submitted, amp.Submitted)
	t.AddRow("placed before failure", alp.PlacedBeforeFailure, amp.PlacedBeforeFailure)
	t.AddRow("requeued by failure", alp.Requeued, amp.Requeued)
	t.AddRow("recovery rate", alp.RecoveryRate(), amp.RecoveryRate())
	t.AddRow("final completion rate", alp.CompletionRate(), amp.CompletionRate())
	t.AddRow("mean extra wait (recovered)", alp.ExtraWait.Mean(), amp.ExtraWait.Mean())
	return t.String()
}
