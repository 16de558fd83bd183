package metasched_test

import (
	"fmt"
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/metrics"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// oracles selects the test-only reference engines a session runs on. The
// zero value is the production configuration.
type oracles struct {
	// dense swaps the sparse frontier DP for the dense reference tables
	// (metasched.UseDenseDP).
	dense bool
	// linear swaps the slot-index scan for the linear list scan
	// (linearOnly).
	linear bool
	// rebuild re-derives every publication from the bookings instead of
	// serving it from the live vacant store (gridsim SetRebuildVacant).
	rebuild bool
}

// linearOnly hides an algorithm's indexed scan: it exposes only Name and
// FindWindow, so the search drivers take their linear path over the raw
// list and a sharded session falls back to the merged single-list search.
// The name is kept, so transcripts compare byte for byte.
type linearOnly struct{ alloc.Algorithm }

// newOracleSession applies the oracles to a session under construction:
// rebuild is set on the grid before the scheduler adopts it, linear wraps the
// algorithm, and dense is installed on the built scheduler.
func newOracleSession(t testing.TB, cfg metasched.Config, grid *gridsim.Grid, o oracles) *metasched.Scheduler {
	t.Helper()
	grid.SetRebuildVacant(o.rebuild)
	if o.linear {
		cfg.Algorithm = linearOnly{cfg.Algorithm}
	}
	sched, err := metasched.New(cfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	if o.dense {
		metasched.UseDenseDP(sched)
	}
	return sched
}

// diffSessionTranscript plays one complete seeded metascheduler session and
// renders every externally observable decision — committed windows, plan
// criteria, postponements, drops, requeues after a node failure, and the
// final queue — as a canonical string. Two runs with the same seed must
// produce the same transcript whatever the oracles: the plan-identity
// contract of the sparse frontier DP versus the dense reference tables, the
// scan-equivalence contract of the bucketed slot index versus the linear
// scan, and the coherence contract of the live vacant store versus the full
// rebuild.
//
// The seed also selects configuration variety: demand pricing on seeds
// divisible by 3, a live owner-local arrival stream on seeds divisible by 4,
// and a mid-session node failure on seeds divisible by 5, so the differential
// sweep covers repricing, non-dedicated resources, and the re-queue path.
//
// reg, when non-nil, attaches the observability registry to the session —
// the transcript must not change (the metrics-neutrality contract). opts,
// when given, mutate the assembled config last — the sharding differential
// uses this to set Shards and Parallelism.
func diffSessionTranscript(t *testing.T, seed uint64, algo alloc.Algorithm, policy metasched.Policy, o oracles, reg *metrics.Registry, opts ...func(*metasched.Config)) string {
	t.Helper()
	return sessionTranscript(t, seed, algo, policy, o, reg, false, opts...)
}

// sessionTranscript is the shared body of diffSessionTranscript and the
// service differential: the same seeded scenario driven either through the
// bare step sequence (RunSteps, no service around the scheduler) or — with
// service set — through a metasched.Service (Submit, Tick and
// HandleNodeFailure routed via the event loop). The determinism contract of
// the continuous service is exactly that the two render byte-identical
// transcripts.
func sessionTranscript(t *testing.T, seed uint64, algo alloc.Algorithm, policy metasched.Policy, o oracles, reg *metrics.Registry, service bool, opts ...func(*metasched.Config)) string {
	t.Helper()
	rng := sim.NewRNG(seed)
	pricing := resource.PaperPricing()
	nodes := make([]*resource.Node, 0, 12)
	for i := 0; i < 12; i++ {
		perf := rng.FloatBetween(1, 3)
		nodes = append(nodes, &resource.Node{
			Name:        fmt.Sprintf("n%d", i+1),
			Performance: perf,
			Price:       pricing.Sample(rng, perf),
		})
	}
	pool, err := resource.NewPool(nodes)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gridsim.New(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Populate(gridsim.LocalLoad{MeanGap: 150, DurMin: 30, DurMax: 120}, 0, 4000, rng.Split()); err != nil {
		t.Fatal(err)
	}
	cfg := metasched.Config{
		Algorithm:        algo,
		Policy:           policy,
		Horizon:          1200,
		Step:             150,
		MaxBatch:         4,
		MaxPostponements: 3,
		Metrics:          reg,
	}
	if seed%3 == 0 {
		cfg.DemandPricing = &metasched.DemandPricing{MinFactor: 0.8, MaxFactor: 1.3}
	}
	if seed%4 == 0 {
		cfg.LocalArrivals = &metasched.LocalArrivals{
			Load: gridsim.LocalLoad{MeanGap: 200, DurMin: 20, DurMax: 90},
			RNG:  rng.Split(),
		}
	}
	for _, o := range opts {
		o(&cfg)
	}
	sched := newOracleSession(t, cfg, grid, o)
	var svc *metasched.Service
	if service {
		if svc, err = metasched.NewService(sched, metasched.ServiceConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	submit := func(j *job.Job) error {
		if svc != nil {
			return svc.Submit(j)
		}
		return sched.Submit(j)
	}
	runIteration := func() (*metasched.IterationReport, error) {
		if svc != nil {
			return svc.Tick()
		}
		return metasched.RunSteps(sched)
	}
	failNode := func(label string) ([]string, error) {
		if svc != nil {
			return svc.HandleNodeFailure(label)
		}
		return sched.HandleNodeFailure(label)
	}
	for i := 0; i < 8; i++ {
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
		if err := submit(j); err != nil {
			t.Fatal(err)
		}
	}

	var b strings.Builder
	for it := 0; it < 10 && sched.QueueLength() > 0; it++ {
		rep, err := runIteration()
		if err != nil {
			t.Fatalf("seed %d iteration %d: %v", seed, it, err)
		}
		fmt.Fprintf(&b, "it=%d now=%v batch=%d alts=%d planT=%v planC=%v pf=%.3f\n",
			rep.Iteration, rep.Now, rep.BatchSize, rep.Alternatives, rep.PlanTime, rep.PlanCost, rep.PriceFactor)
		for _, p := range rep.Placed {
			fmt.Fprintf(&b, "  placed %s -> %v wait=%v\n", p.Job.Name, p.Window.Window, p.WaitTime)
		}
		fmt.Fprintf(&b, "  postponed=%v dropped=%v\n", rep.Postponed, rep.Dropped)
		if it == 1 && seed%5 == 0 {
			requeued, err := failNode("n3")
			if err != nil {
				t.Fatalf("seed %d: node failure: %v", seed, err)
			}
			fmt.Fprintf(&b, "  failure n3 requeued=%v\n", requeued)
		}
	}
	fmt.Fprintf(&b, "queue=%d\n", sched.QueueLength())
	return b.String()
}

// TestIndexedLinearDifferential drives full metascheduler sessions over 20
// seeded random scenarios — ALP and both AMP window policies, both batch
// policies, demand pricing, local arrivals and node failures mixed in by the
// seed schedule — and asserts the default bucketed slot index produces a
// byte-identical session transcript to the linear oracle scan: same
// committed windows, same plan times and costs, same postponements, drops,
// and failure recovery.
func TestIndexedLinearDifferential(t *testing.T) {
	algos := []struct {
		name string
		algo alloc.Algorithm
	}{
		{"ALP", alloc.ALP{}},
		{"AMP/cheapest-N", alloc.AMP{}},
		{"AMP/first-N", alloc.AMP{Policy: alloc.FirstN}},
	}
	policies := []metasched.Policy{metasched.MinimizeTime, metasched.MinimizeCost}
	for seed := uint64(1); seed <= 20; seed++ {
		for _, a := range algos {
			for _, policy := range policies {
				linear := diffSessionTranscript(t, seed, a.algo, policy, oracles{linear: true}, nil)
				indexed := diffSessionTranscript(t, seed, a.algo, policy, oracles{}, nil)
				if linear != indexed {
					t.Fatalf("seed %d %s %v: indexed transcript diverged from linear oracle\n--- linear ---\n%s\n--- indexed ---\n%s",
						seed, a.name, policy, linear, indexed)
				}
			}
		}
	}
}

// TestFrontierDenseDifferential drives full metascheduler sessions over 20
// seeded random scenarios — both algorithms, both batch policies, demand
// pricing and local arrivals mixed in by the seed schedule — and asserts the
// sparse frontier DP produces a byte-identical session transcript to the
// dense reference tables: same committed windows, same plan times and
// costs, same postponements, drops, and failure recovery.
func TestFrontierDenseDifferential(t *testing.T) {
	algos := []struct {
		name string
		algo alloc.Algorithm
	}{
		{"ALP", alloc.ALP{}},
		{"AMP", alloc.AMP{}},
	}
	policies := []metasched.Policy{metasched.MinimizeTime, metasched.MinimizeCost}
	for seed := uint64(1); seed <= 20; seed++ {
		for _, a := range algos {
			for _, policy := range policies {
				dense := diffSessionTranscript(t, seed, a.algo, policy, oracles{dense: true}, nil)
				frontier := diffSessionTranscript(t, seed, a.algo, policy, oracles{}, nil)
				if dense != frontier {
					t.Fatalf("seed %d %s %v: frontier transcript diverged from dense oracle\n--- dense ---\n%s\n--- frontier ---\n%s",
						seed, a.name, policy, dense, frontier)
				}
			}
		}
	}
}

// TestLiveStoreRebuildDifferential drives full metascheduler sessions over 20
// seeded random scenarios — both algorithms, both batch policies, indexed and
// linear scans — and asserts the live vacant-slot store produces a
// byte-identical session transcript to the rebuild oracle that re-derives
// every publication from the bookings: same committed windows, same plan
// times and costs, same postponements, drops, and failure recovery.
func TestLiveStoreRebuildDifferential(t *testing.T) {
	algos := []struct {
		name string
		algo alloc.Algorithm
	}{
		{"ALP", alloc.ALP{}},
		{"AMP", alloc.AMP{}},
	}
	policies := []metasched.Policy{metasched.MinimizeTime, metasched.MinimizeCost}
	for seed := uint64(1); seed <= 20; seed++ {
		for _, a := range algos {
			for _, policy := range policies {
				for _, useLinear := range []bool{false, true} {
					rebuilt := diffSessionTranscript(t, seed, a.algo, policy, oracles{linear: useLinear, rebuild: true}, nil)
					live := diffSessionTranscript(t, seed, a.algo, policy, oracles{linear: useLinear}, nil)
					if live != rebuilt {
						t.Fatalf("seed %d %s %v linear=%t: live-store transcript diverged from rebuild oracle\n--- rebuild ---\n%s\n--- live ---\n%s",
							seed, a.name, policy, useLinear, rebuilt, live)
					}
				}
			}
		}
	}
}

// TestLiveStoreSteadyStateNoRebuilds pins the tentpole's performance contract
// on a real session: on the live path the store is built exactly once (the
// lazy first publication), every later iteration applies the committed
// windows and the sliding horizon as deltas, the search adopts the prebuilt
// index instead of rebuilding its own, and the self-healing reset never
// fires. Seed 7 avoids demand pricing (seeds divisible by 3), which is the
// documented prebuilt fall-back.
func TestLiveStoreSteadyStateNoRebuilds(t *testing.T) {
	reg := metrics.New()
	diffSessionTranscript(t, 7, alloc.AMP{}, metasched.MinimizeTime, oracles{}, reg)
	snap := reg.Snapshot()
	if n := snap.Counter("gridsim/store/rebuilds_total"); n != 1 {
		t.Errorf("gridsim/store/rebuilds_total = %d, want exactly 1", n)
	}
	if n := snap.Counter("gridsim/store/incoherent_drops_total"); n != 0 {
		t.Errorf("gridsim/store/incoherent_drops_total = %d, want 0", n)
	}
	if n := snap.Counter("alloc/AMP/index/rebuilds_total"); n != 0 {
		t.Errorf("alloc/AMP/index/rebuilds_total = %d, want 0: the search must adopt the store's index", n)
	}
	if n := snap.Counter("gridsim/store/snapshots_total"); n == 0 {
		t.Error("no store snapshots recorded — the live path did not serve the session")
	}
}

// TestOraclesEngage guards the differentials above against comparing the
// production engines with themselves: each oracle must really replace its
// engine, which the metrics show — no frontier builds under dense, no
// indexed scans under linear, no live-store snapshots under rebuild — while
// the zero oracles use all three production engines.
func TestOraclesEngage(t *testing.T) {
	counters := func(o oracles) (frontier, indexScans, storeSnapshots int64) {
		reg := metrics.New()
		diffSessionTranscript(t, 7, alloc.AMP{}, metasched.MinimizeTime, o, reg)
		snap := reg.Snapshot()
		return snap.Counter("metasched/engine/frontier_total"),
			snap.Counter("alloc/AMP/index/scans_total"),
			snap.Counter("gridsim/store/snapshots_total")
	}
	if f, ix, st := counters(oracles{}); f == 0 || ix == 0 || st == 0 {
		t.Fatalf("production session: frontier=%d index scans=%d store snapshots=%d, want all > 0", f, ix, st)
	}
	if f, _, _ := counters(oracles{dense: true}); f != 0 {
		t.Errorf("dense oracle session built %d frontiers, want 0", f)
	}
	if _, ix, _ := counters(oracles{linear: true}); ix != 0 {
		t.Errorf("linear oracle session ran %d indexed scans, want 0", ix)
	}
	if _, _, st := counters(oracles{rebuild: true}); st != 0 {
		t.Errorf("rebuild oracle session took %d live-store snapshots, want 0", st)
	}
}
