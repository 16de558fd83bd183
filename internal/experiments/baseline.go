package experiments

import (
	"fmt"

	"ecosched/internal/alloc"
	"ecosched/internal/backfill"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/stats"
)

// BaselineConfig parameterizes the backfilling comparison: rigid parallel
// jobs on a homogeneous, dedicated cluster — backfilling's home turf, where
// the paper concedes the baseline works (Section 3: backfilling "is able to
// find an exact number of concurrent slots for tasks with identical resource
// requirements and homogeneous resources").
type BaselineConfig struct {
	Seed   uint64
	Trials int
	// Nodes is the cluster width (default 16).
	Nodes int
	// Jobs is the queue length per trial (default 12).
	Jobs int
}

func (c *BaselineConfig) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if c.Jobs <= 0 {
		c.Jobs = 12
	}
}

// BaselinePoint aggregates one scheduler's results.
type BaselinePoint struct {
	Scheme string
	// MeanWait is the average job wait (start − arrival 0 = start).
	MeanWait stats.Online
	// Makespan is the average latest completion per trial.
	Makespan stats.Online
	// Scheduled counts placed jobs over all trials.
	Scheduled int
}

// BaselineStudy schedules identical rigid queues with EASY backfilling and
// with the economic scheme (AMP + time minimization) on a homogeneous,
// idle, uniform-price grid, and compares placement quality. The economic
// scheme generalizes backfilling here — with one price and one speed, ALP,
// AMP, and a rectangular-window scheduler see the same feasible set — so
// comparable makespans at comparable waits are the expected outcome; the
// point of the experiment is that the generality is not paid for with
// placement quality.
func BaselineStudy(cfg BaselineConfig) (bf, eco *BaselinePoint, err error) {
	if cfg.Trials <= 0 {
		return nil, nil, fmt.Errorf("experiments: non-positive trial count %d", cfg.Trials)
	}
	cfg.defaults()
	bf = &BaselinePoint{Scheme: "EASY backfilling"}
	eco = &BaselinePoint{Scheme: "AMP + min-time"}
	root := sim.NewRNG(cfg.Seed)
	for trial := 0; trial < cfg.Trials; trial++ {
		rng := sim.NewRNG(root.Uint64())
		// One queue, both schedulers.
		type rigid struct {
			nodes int
			dur   sim.Duration
		}
		queue := make([]rigid, cfg.Jobs)
		for i := range queue {
			queue[i] = rigid{nodes: rng.IntBetween(1, cfg.Nodes/2), dur: sim.Duration(rng.IntBetween(50, 150))}
		}

		// (a) EASY backfilling.
		var bq []backfill.QueuedJob
		for i, q := range queue {
			bq = append(bq, backfill.QueuedJob{
				Name: fmt.Sprintf("job%d", i+1), Nodes: q.nodes, Duration: q.dur,
			})
		}
		sched, err := backfill.Run(backfill.EASY, cfg.Nodes, bq)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range sched.Reservations {
			bf.MeanWait.Add(float64(r.Span.Start))
		}
		bf.Makespan.Add(float64(sched.Makespan))
		bf.Scheduled += len(sched.Reservations)

		// (b) The economic scheme on an equivalent idle grid.
		nodes := make([]*resource.Node, cfg.Nodes)
		for i := range nodes {
			nodes[i] = &resource.Node{Name: fmt.Sprintf("n%d", i), Performance: 1, Price: 1}
		}
		pool, err := resource.NewPool(nodes)
		if err != nil {
			return nil, nil, err
		}
		grid, err := gridsim.New(pool)
		if err != nil {
			return nil, nil, err
		}
		ms, err := metasched.New(metasched.Config{
			Algorithm: alloc.AMP{},
			Policy:    metasched.MinimizeTime,
			Horizon:   sim.Duration(cfg.Jobs) * 200,
			Step:      100,
		}, grid)
		if err != nil {
			return nil, nil, err
		}
		for i, q := range queue {
			err := ms.Submit(&job.Job{
				Name:     fmt.Sprintf("job%d", i+1),
				Priority: i + 1,
				Request: job.ResourceRequest{
					Nodes: q.nodes, Time: q.dur, MinPerformance: 1, MaxPrice: 10,
				},
			})
			if err != nil {
				return nil, nil, err
			}
		}
		reports, err := ms.RunUntilDrained(cfg.Jobs)
		if err != nil {
			return nil, nil, err
		}
		var makespan sim.Time
		for _, r := range reports {
			for _, p := range r.Placed {
				eco.MeanWait.Add(float64(p.Window.Window.Start()))
				if end := p.Window.Window.End(); end > makespan {
					makespan = end
				}
				eco.Scheduled++
			}
		}
		eco.Makespan.Add(float64(makespan))
	}
	return bf, eco, nil
}

// RenderBaseline prints the comparison.
func RenderBaseline(bf, eco *BaselinePoint) string {
	t := stats.NewTable("metric", bf.Scheme, eco.Scheme)
	t.AddRow("jobs scheduled", bf.Scheduled, eco.Scheduled)
	t.AddRow("mean wait", bf.MeanWait.Mean(), eco.MeanWait.Mean())
	t.AddRow("mean makespan", bf.Makespan.Mean(), eco.Makespan.Mean())
	return t.String()
}
