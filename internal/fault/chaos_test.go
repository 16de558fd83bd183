package fault_test

import (
	"fmt"
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/fault"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// chaosIterations is the length of every soak session; with chaosStep it
// fixes the horizon the fault plans are generated over.
const (
	chaosIterations = 10
	chaosStep       = sim.Duration(150)
)

// chaosScheduler builds the soak's seeded scenario: a 12-node grid with
// owner-local load, a retry policy with backoff, degradation ladder and
// deadline, and 8 submitted jobs — the same scenario family as the
// metasched differential suite, plus the retry policy. internal/metasched's
// TestChaosSoakOracles repeats this scenario to run it on the oracle engines;
// keep the two in step.
func chaosScheduler(t testing.TB, seed uint64, algo alloc.Algorithm, policy metasched.Policy) *metasched.Scheduler {
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
			Domain:      fmt.Sprintf("d%d", i%3),
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
		Step:             chaosStep,
		MaxBatch:         4,
		MaxPostponements: 3,
		Retry: &metasched.RetryPolicy{
			MaxAttempts:      2,
			BackoffBase:      40,
			BackoffFactor:    2,
			BackoffMax:       300,
			JitterFrac:       0.25,
			JitterSeed:       seed,
			PriceRelaxFactor: 1.3,
			MaxRelaxations:   2,
			JobDeadline:      1400,
		},
	}
	sched, err := metasched.New(cfg, grid)
	if err != nil {
		t.Fatal(err)
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
		if err := sched.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	return sched
}

// chaosPlan compiles the seed's fault schedule: crashes with recovery,
// revocations, at the given per-iteration rate.
func chaosPlan(t testing.TB, pool *resource.Pool, seed uint64, rate float64) *fault.Plan {
	t.Helper()
	plan, err := fault.RandomPlan(pool, fault.RandomSpec{
		Seed:           seed ^ 0xc4a5a511,
		Horizon:        sim.Time(0).Add(chaosStep * sim.Duration(chaosIterations)),
		Step:           chaosStep,
		Rate:           rate,
		RevokeFraction: 0.4,
		Outage:         2 * chaosStep,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// chaosTranscript plays one full fault session and returns its canonical
// transcript, failing the test on any scheduler error or audit violation.
func chaosTranscript(t testing.TB, seed uint64, algo alloc.Algorithm, policy metasched.Policy) string {
	t.Helper()
	sched := chaosScheduler(t, seed, algo, policy)
	plan := chaosPlan(t, sched.Grid().Pool(), seed, 0.6)
	var b strings.Builder
	sess, err := fault.NewSession(sched, plan, &b)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(chaosIterations); err != nil {
		t.Fatalf("seed %d: %v\ntranscript so far:\n%s", seed, err, b.String())
	}
	if v := sess.Audit().Violations(); len(v) > 0 {
		t.Fatalf("seed %d: %d audit violations: %v", seed, len(v), v)
	}
	return b.String()
}

// TestChaosSoak is the invariant-checked chaos soak: 50 seeded sessions
// (10 under -short) through both algorithms, each injecting a dense random
// fault schedule — node crashes, recoveries, slot revocations — with the
// audit running after every event and iteration. The sessions run on the
// live store with the audit's checkVacancy comparing it against the rebuild
// after every event and iteration, so this is the 50-seed coherence proof
// for the store. The same sessions on the oracle engines (dense DP, linear
// scan, vacancy rebuild) must be byte-identical; internal/metasched's
// TestChaosSoakOracles asserts that, because the oracles are reachable only
// from that package's tests.
func TestChaosSoak(t *testing.T) {
	seeds := uint64(50)
	if testing.Short() {
		seeds = 10
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		policy := metasched.MinimizeTime
		if seed%2 == 0 {
			policy = metasched.MinimizeCost
		}
		for _, algo := range []alloc.Algorithm{alloc.ALP{}, alloc.AMP{}} {
			if base := chaosTranscript(t, seed, algo, policy); !strings.Contains(base, "fault ") {
				t.Fatalf("seed %d %s: chaos session injected no faults — the soak is not soaking", seed, algo.Name())
			}
		}
	}
}

// TestEmptyPlanNeutrality proves the fault layer is neutral when idle: a
// session with a nil plan, a session with a parsed empty plan, and a bare
// scheduler loop that never constructs a Session or Audit at all must
// produce byte-identical transcripts.
func TestEmptyPlanNeutrality(t *testing.T) {
	empty, err := fault.ParsePlan("")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, algo := range []alloc.Algorithm{alloc.ALP{}, alloc.AMP{}} {
			// Baseline: plain scheduler loop, no fault layer.
			sched := chaosScheduler(t, seed, algo, metasched.MinimizeTime)
			var base strings.Builder
			for i := 0; i < chaosIterations; i++ {
				rep, err := sched.RunIteration()
				if err != nil {
					t.Fatal(err)
				}
				fault.WriteIterationReport(&base, rep)
			}
			fault.WriteSummary(&base, sched, 0, 0)

			for _, plan := range []*fault.Plan{nil, empty} {
				sched := chaosScheduler(t, seed, algo, metasched.MinimizeTime)
				var b strings.Builder
				sess, err := fault.NewSession(sched, plan, &b)
				if err != nil {
					t.Fatal(err)
				}
				if err := sess.Run(chaosIterations); err != nil {
					t.Fatal(err)
				}
				if b.String() != base.String() {
					t.Fatalf("seed %d %s plan=%v: idle fault session diverged from bare run\n--- bare ---\n%s\n--- session ---\n%s",
						seed, algo.Name(), plan, base.String(), b.String())
				}
			}
		}
	}
}

// TestSessionRejectsUnknownNodes checks plan/pool validation at session
// construction.
func TestSessionRejectsUnknownNodes(t *testing.T) {
	sched := chaosScheduler(t, 1, alloc.ALP{}, metasched.MinimizeTime)
	plan, err := fault.ParsePlan("fail@100:ghost")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fault.NewSession(sched, plan, nil); err == nil {
		t.Fatal("session accepted a plan targeting a node outside the pool")
	}
}

// TestAuditCatchesViolations drives the auditor against hand-made broken
// states — a resurrection of a cancelled reservation, a fault event that
// adds capacity, and a live reservation on a failed node — to prove the
// chaos soak's "zero violations" claim has teeth.
func TestAuditCatchesViolations(t *testing.T) {
	build := func() (*metasched.Scheduler, *gridsim.Grid) {
		pool := testPool(t, 3)
		grid, err := gridsim.New(pool)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := metasched.New(metasched.Config{
			Algorithm: alloc.ALP{}, Horizon: 1000, Step: 100,
		}, grid)
		if err != nil {
			t.Fatal(err)
		}
		return sched, grid
	}

	t.Run("resurrection", func(t *testing.T) {
		sched, grid := build()
		a := fault.NewAudit(sched)
		task := gridsim.Task{Name: "victim", Node: 0, Span: sim.Interval{Start: 100, End: 200}}
		if err := grid.Book(task); err != nil {
			t.Fatal(err)
		}
		a.BeginEvent()
		grid.CancelJob("victim")
		ev := fault.Event{At: 0, Kind: fault.Revoke, Node: "n1", Span: sim.Interval{Start: 100, End: 200}}
		if got := a.EndEvent(ev); len(got) != 1 {
			t.Fatalf("EndEvent reported %v cancelled, want the one victim", got)
		}
		if err := a.Check(); err != nil {
			t.Fatalf("clean post-cancellation state flagged: %v", err)
		}
		// The reservation sneaks back without a scheduler commit.
		if err := grid.Book(task); err != nil {
			t.Fatal(err)
		}
		if err := a.Check(); err == nil {
			t.Fatal("resurrected reservation not flagged")
		}
		// A legitimate re-placement clears the record.
		a.JobRescheduled("victim")
		if err := a.Check(); err != nil {
			t.Fatalf("re-placed job still flagged: %v", err)
		}
	})

	t.Run("event-adds-capacity", func(t *testing.T) {
		sched, grid := build()
		a := fault.NewAudit(sched)
		a.BeginEvent()
		if err := grid.Book(gridsim.Task{Name: "smuggled", Node: 1, Span: sim.Interval{Start: 50, End: 90}}); err != nil {
			t.Fatal(err)
		}
		a.EndEvent(fault.Event{At: 0, Kind: fault.Recover, Node: "n2"})
		if len(a.Violations()) == 0 {
			t.Fatal("event that added a reservation not flagged")
		}
	})

	t.Run("live-reservation-on-failed-node", func(t *testing.T) {
		sched, grid := build()
		a := fault.NewAudit(sched)
		if _, err := grid.FailNode(0, 0); err != nil {
			t.Fatal(err)
		}
		// Book itself refuses failed nodes, so the zombie needs the
		// corruption hook — which is the point: only a bypassed write
		// path can reach this state, and the audit still flags it.
		grid.ForceBook(gridsim.Task{Name: "zombie", Node: 0, Span: sim.Interval{Start: 10, End: 500}})
		if err := a.Check(); err == nil {
			t.Fatal("live reservation on a failed node not flagged")
		}
	})
}
