package metasched_test

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

// The chaos scenario below is internal/fault's soak scenario (chaos_test.go
// there), repeated here because the oracles are reachable only from this
// package's tests. Both must build the same sessions.
const (
	chaosIterations = 10
	chaosStep       = sim.Duration(150)
)

// chaosOracleTranscript plays one fault-injected session of the soak scenario
// — a 12-node grid with owner-local load, a retry policy with backoff,
// degradation ladder and deadline, 8 jobs, and a dense random fault plan — on
// the given oracles, and returns its transcript. Any scheduler error or audit
// violation fails the test.
func chaosOracleTranscript(t *testing.T, seed uint64, algo alloc.Algorithm, policy metasched.Policy, o oracles) string {
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
	sched := newOracleSession(t, metasched.Config{
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
	}, grid, o)
	svc, err := metasched.NewService(sched, metasched.ServiceConfig{})
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
		if err := svc.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := fault.RandomPlan(pool, fault.RandomSpec{
		Seed:           seed ^ 0xc4a5a511,
		Horizon:        sim.Time(0).Add(chaosStep * sim.Duration(chaosIterations)),
		Step:           chaosStep,
		Rate:           0.6,
		RevokeFraction: 0.4,
		Outage:         2 * chaosStep,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	sess, err := fault.NewSession(svc, plan, &b)
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

// TestChaosSoakOracles is the oracle half of the chaos soak (internal/fault's
// TestChaosSoak runs the audited production sessions): over the same 50
// seeded fault sessions (10 under -short), both algorithms and the policy
// alternating by seed, the transcript must be byte-identical with every
// oracle engine — dense versus frontier DP, linear versus indexed scan,
// rebuilt versus live vacancy, and all three flipped together — with the
// audit running after every event and iteration.
func TestChaosSoakOracles(t *testing.T) {
	seeds := uint64(50)
	if testing.Short() {
		seeds = 10
	}
	algos := []struct {
		name string
		algo alloc.Algorithm
	}{
		{"ALP", alloc.ALP{}},
		{"AMP", alloc.AMP{}},
	}
	variants := []struct {
		name string
		o    oracles
	}{
		{"dense", oracles{dense: true}},
		{"linear", oracles{linear: true}},
		{"rebuild", oracles{rebuild: true}},
		{"dense+linear+rebuild", oracles{dense: true, linear: true, rebuild: true}},
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		policy := metasched.MinimizeTime
		if seed%2 == 0 {
			policy = metasched.MinimizeCost
		}
		for _, a := range algos {
			base := chaosOracleTranscript(t, seed, a.algo, policy, oracles{})
			if !strings.Contains(base, "fault ") {
				t.Fatalf("seed %d %s: chaos session injected no faults — the soak is not soaking", seed, a.name)
			}
			for _, v := range variants {
				if got := chaosOracleTranscript(t, seed, a.algo, policy, v.o); got != base {
					t.Fatalf("seed %d %s %v: %s transcript diverged from base\n--- base ---\n%s\n--- %s ---\n%s",
						seed, a.name, policy, v.name, base, v.name, got)
				}
			}
		}
	}
}
