package main

import (
	"fmt"
	"os"

	"ecosched/internal/alloc"
	"ecosched/internal/durable"
	"ecosched/internal/fault"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/metrics"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// chaosIterations is the scenario length; with the 150-tick step it fixes
// the horizon the default random fault plan is generated over.
const (
	chaosIterations = 12
	chaosStep       = sim.Duration(150)
)

// chaosScenario builds the chaos experiment's environment deterministically
// from the seed: a 12-node grid in three domains with owner-local load, an
// AMP scheduler with the retry/backoff policy, and (when service is set) the
// continuous-service wrapper — but no submitted jobs, so the same call serves
// both as the live session's starting point and as the pristine factory that
// journal recovery replays history into. The returned RNG has consumed
// exactly the environment draws, so callers generate identical job batches.
func chaosScenario(seed uint64, parallelism, shards int, service bool, reg *metrics.Registry) (*metasched.Scheduler, *metasched.Service, *resource.Pool, *sim.RNG, error) {
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
		return nil, nil, nil, nil, err
	}
	grid, err := gridsim.New(pool)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	grid.SetMetrics(gridsim.NewMetrics(reg))
	if err := grid.Populate(gridsim.LocalLoad{MeanGap: 120, DurMin: 40, DurMax: 160}, 0, 2400, rng.Split()); err != nil {
		return nil, nil, nil, nil, err
	}
	cfg := metasched.Config{
		Algorithm:        alloc.AMP{},
		Policy:           metasched.MinimizeTime,
		Horizon:          1200,
		Step:             chaosStep,
		MaxBatch:         4,
		MaxPostponements: 5,
		Parallelism:      parallelism,
		Shards:           shards,
		Metrics:          reg,
		Retry: &metasched.RetryPolicy{
			MaxAttempts:      2,
			BackoffBase:      40,
			BackoffFactor:    2,
			BackoffMax:       300,
			JitterFrac:       0.25,
			JitterSeed:       seed,
			PriceRelaxFactor: 1.3,
			MaxRelaxations:   2,
			JobDeadline:      1600,
		},
	}
	sched, err := metasched.New(cfg, grid)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var svc *metasched.Service
	if service {
		svc, err = metasched.NewService(sched, metasched.ServiceConfig{})
		if err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return sched, svc, pool, rng, nil
}

// chaosJob draws the i-th job of the chaos batch from the scenario RNG.
func chaosJob(rng *sim.RNG, pricing resource.ExponentialPricing, i int) *job.Job {
	return &job.Job{
		Name:     fmt.Sprintf("job%d", i+1),
		Priority: i + 1,
		Request: job.ResourceRequest{
			Nodes:          rng.IntBetween(1, 4),
			Time:           sim.Duration(rng.IntBetween(50, 150)),
			MinPerformance: rng.FloatBetween(1, 2),
			MaxPrice:       pricing.BasePrice(1.5) * sim.Money(rng.FloatBetween(1.0, 1.5)),
		},
	}
}

// durableOptions assembles the journal/checkpoint options shared by the chaos
// write path and the recover subcommand: the checkpoint file always lives next
// to the journal under a fixed suffix, so "recover -journal PATH" finds the
// checkpoint the write session left without another flag.
func durableOptions(journalPath string, checkpointEvery int, reg *metrics.Registry) durable.Options {
	opts := durable.Options{JournalPath: journalPath, Metrics: reg}
	if checkpointEvery > 0 {
		opts.CheckpointEvery = checkpointEvery
	}
	opts.CheckpointPath = journalPath + ".ckpt"
	return opts
}

// runChaos drives a fault-injected metascheduler session: a 12-node grid
// with owner-local load, a retry policy with exponential backoff and a
// price-relaxation degradation ladder, and a fault plan injecting node
// crashes, recoveries and slot revocations between iterations. faultsSpec
// is the plan DSL from -faults ("fail@300:cpu3;recover@600:cpu3;
// revoke@450:cpu5:500-700"); empty generates a seeded random plan. service
// drives the session through the continuous-service event loop (events and
// ticks enqueue evaluations; the transcript is byte-identical), and
// journalPath additionally write-ahead journals every transition — with a
// checkpoint every checkpointEvery rounds — so a crashed session replays via
// the recover subcommand. The invariant auditor runs after every event and
// iteration; the command fails on the first violation.
func runChaos(seed uint64, faultsSpec, journalPath string, checkpointEvery, parallelism, shards int, service bool, reg *metrics.Registry) error {
	if journalPath != "" && !service {
		return fmt.Errorf("chaos: -journal wraps the continuous service; add -service")
	}
	sched, svc, pool, rng, err := chaosScenario(seed, parallelism, shards, service, reg)
	if err != nil {
		return err
	}
	var ds *durable.Service
	if journalPath != "" {
		ds, err = durable.New(svc, durableOptions(journalPath, checkpointEvery, reg))
		if err != nil {
			return err
		}
		defer ds.Close()
	}
	pricing := resource.PaperPricing()
	for i := 0; i < 10; i++ {
		j := chaosJob(rng, pricing, i)
		switch {
		case ds != nil:
			err = ds.Submit(j)
		case svc != nil:
			err = svc.Submit(j)
		default:
			err = sched.Submit(j)
		}
		if err != nil {
			return err
		}
	}

	var plan *fault.Plan
	if faultsSpec != "" {
		plan, err = fault.ParsePlan(faultsSpec)
		if err != nil {
			return err
		}
	} else {
		plan, err = fault.RandomPlan(pool, fault.RandomSpec{
			Seed:           seed ^ 0xc4a5a511,
			Horizon:        sim.Time(0).Add(chaosStep * sim.Duration(chaosIterations)),
			Step:           chaosStep,
			Rate:           0.5,
			RevokeFraction: 0.4,
			Outage:         2 * chaosStep,
		})
		if err != nil {
			return err
		}
	}
	fmt.Printf("chaos: %d nodes in %d domains, %d fault events: %s\n",
		pool.Size(), len(pool.Domains()), plan.Len(), plan)
	var sess *fault.Session
	switch {
	case ds != nil:
		sess, err = fault.NewDriverSession(ds, plan, os.Stdout)
	case svc != nil:
		sess, err = fault.NewServiceSession(svc, plan, os.Stdout)
	default:
		sess, err = fault.NewSession(sched, plan, os.Stdout)
	}
	if err != nil {
		return err
	}
	if err := sess.Run(chaosIterations); err != nil {
		return err
	}
	fmt.Printf("audit: %d violations over %d applied events\n",
		len(sess.Audit().Violations()), sess.Applied())
	if ds != nil {
		if err := ds.Close(); err != nil {
			return err
		}
		info, err := os.Stat(journalPath)
		if err != nil {
			return err
		}
		fmt.Printf("journal: %s (%d bytes); replay with: ecosched recover -journal %s -seed %d\n",
			journalPath, info.Size(), journalPath, seed)
	}
	return nil
}

// runRecover rebuilds the chaos session's durable service from its journal:
// the pristine scenario is reconstructed from the same seed and flags, the
// latest valid checkpoint (if any) is restored, and the journal suffix is
// replayed through the real service handlers. The full invariant audit plus
// the recovery-coherence check run against the recovered state, and the
// report ends with the canonical state hash — two recoveries of the same
// journal must print the same hash.
func runRecover(seed uint64, journalPath string, checkpointEvery, parallelism, shards int, reg *metrics.Registry) error {
	if journalPath == "" {
		return fmt.Errorf("recover: -journal PATH is required")
	}
	if _, err := os.Stat(journalPath); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	factory := func() (*metasched.Service, error) {
		_, svc, _, _, err := chaosScenario(seed, parallelism, shards, true, reg)
		return svc, err
	}
	ds, rep, err := durable.Recover(durableOptions(journalPath, checkpointEvery, reg), factory)
	if err != nil {
		return err
	}
	defer ds.Close()
	audit := fault.NewAudit(ds.Scheduler())
	if err := audit.Check(); err != nil {
		return fmt.Errorf("recover: post-recovery audit: %w", err)
	}
	if err := audit.CheckRecoveryCoherence(rep.AppliedLive); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	src := "full journal replay"
	if rep.CheckpointUsed {
		src = "checkpoint + journal suffix"
	}
	fmt.Printf("recovered %s from %s (%s)\n", journalPath, src, "audit clean")
	fmt.Printf("records: %d scanned, %d replayed (%d submits, %d fails, %d recovers, %d revokes, %d rounds)\n",
		rep.RecordsScanned, rep.RecordsReplayed,
		rep.Submits, rep.Fails, rep.Recovers, rep.Revokes, rep.Rounds)
	if rep.TornBytesDropped > 0 {
		fmt.Printf("torn tail: %d bytes truncated\n", rep.TornBytesDropped)
	}
	fmt.Printf("applied plans live: %d, queue depth: %d, placed jobs: %d\n",
		len(rep.AppliedLive), ds.QueueDepth(), len(ds.Scheduler().PlacedJobs()))
	fmt.Printf("state hash: %016x\n", durable.StateHash(ds.Unwrap()))
	return nil
}
