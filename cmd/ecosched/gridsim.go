package main

import (
	"fmt"

	"ecosched/internal/alloc"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/metrics"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// runGridsim drives a multi-iteration metascheduler session on a randomly
// loaded grid: jobs arrive over time, local owner tasks occupy nodes, and
// the scheduler places what it can each iteration, postponing the rest.
// shards federates the grid into that many sharded domains with cross-shard
// combination, and parallelism bounds the per-shard scan producers; the
// schedule is byte-identical for every combination. service swaps the batch iteration loop for the
// continuous-service event loop (submits and ticks enqueue evaluations; the
// reports are identical). reg, when non-nil, collects the session's metrics
// for the caller's -metrics dump.
func runGridsim(seed uint64, parallelism, shards int, service bool, reg *metrics.Registry) error {
	rng := sim.NewRNG(seed)
	pricing := resource.PaperPricing()
	var nodes []*resource.Node
	for i := 0; i < 12; i++ {
		perf := rng.FloatBetween(1, 3)
		nodes = append(nodes, &resource.Node{
			Name:        fmt.Sprintf("cpu%d", i+1),
			Performance: perf,
			Price:       pricing.Sample(rng, perf),
			Domain:      fmt.Sprintf("cluster%d", i/4+1),
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
	// Attach before the initial Populate so the seed load is counted too;
	// metasched.New re-resolves the same instruments from the registry.
	grid.SetMetrics(gridsim.NewMetrics(reg))
	if err := grid.Populate(gridsim.LocalLoad{MeanGap: 120, DurMin: 40, DurMax: 160}, 0, 2400, rng.Split()); err != nil {
		return err
	}
	cfg := metasched.Config{
		Algorithm:        alloc.AMP{},
		Policy:           metasched.MinimizeTime,
		Horizon:          800,
		Step:             200,
		MaxBatch:         4,
		MaxPostponements: 5,
		Parallelism:      parallelism,
		Shards:           shards,
		Metrics:          reg,
	}
	sched, err := metasched.New(cfg, grid)
	if err != nil {
		return err
	}
	var svc *metasched.Service
	if service {
		svc, err = metasched.NewService(sched, metasched.ServiceConfig{})
		if err != nil {
			return err
		}
	}
	for i := 0; i < 10; i++ {
		j := &job.Job{
			Name:     fmt.Sprintf("job%d", i+1),
			Priority: i + 1,
			Request: job.ResourceRequest{
				Nodes:          rng.IntBetween(1, 4),
				Time:           sim.Duration(rng.IntBetween(50, 150)),
				MinPerformance: rng.FloatBetween(1, 2),
				MaxPrice:       pricing.BasePrice(1.5) * sim.Money(rng.FloatBetween(1.0, 1.5)),
			},
		}
		if svc != nil {
			err = svc.Submit(j)
		} else {
			err = sched.Submit(j)
		}
		if err != nil {
			return err
		}
	}
	fmt.Printf("grid: %d nodes in %d domains, initial utilization %.0f%%\n",
		pool.Size(), len(pool.Domains()), 100*grid.Utilization(2400))
	var reports []*metasched.IterationReport
	if svc != nil {
		// Service mode: tick rounds until the queue drains, the event-loop
		// equivalent of RunUntilDrained — identical reports by construction.
		for i := 0; i < 8 && sched.QueueLength() > 0; i++ {
			rep, err := svc.Tick()
			if err != nil {
				return err
			}
			reports = append(reports, rep)
		}
	} else {
		reports, err = sched.RunUntilDrained(8)
		if err != nil {
			return err
		}
	}
	for _, r := range reports {
		fmt.Printf("iteration %d (t=%v): batch=%d placed=%d postponed=%d dropped=%d alternatives=%d planT=%v planC=%v\n",
			r.Iteration, r.Now, r.BatchSize, len(r.Placed), len(r.Postponed), len(r.Dropped),
			r.Alternatives, r.PlanTime, r.PlanCost)
		for _, p := range r.Placed {
			fmt.Printf("    %-6s -> %v (wait %v)\n", p.Job.Name, p.Window.Window, p.WaitTime)
		}
	}
	fmt.Printf("queue remaining: %d\n", sched.QueueLength())
	return nil
}
