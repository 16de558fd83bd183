package metasched_test

import (
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/metasched"
	"ecosched/internal/metrics"
)

// TestServiceBatchDifferential is the determinism contract of the
// continuous-service metascheduler: over 20 seeded scenarios — demand
// pricing, local arrivals and a mid-session node failure mixed in by the
// seed schedule — driving the session through metasched.Service (events
// enqueue evaluations, each step is an evaluation round) produces a
// byte-identical transcript to batch RunIteration, across {ALP, AMP} ×
// {live store, rebuild oracle} × {K=1, K=4 with sequential producers, K=4
// with parallel producers}.
// The policy alternates with seed parity so both batch criteria are covered
// without doubling the sweep.
func TestServiceBatchDifferential(t *testing.T) {
	algos := []struct {
		name string
		algo alloc.Algorithm
	}{
		{"ALP", alloc.ALP{}},
		{"AMP", alloc.AMP{}},
	}
	for seed := uint64(1); seed <= 20; seed++ {
		policy := metasched.MinimizeTime
		if seed%2 == 0 {
			policy = metasched.MinimizeCost
		}
		for _, a := range algos {
			for _, rebuild := range []bool{false, true} {
				for _, fed := range []struct{ shards, parallelism int }{{1, 1}, {4, 1}, {4, 4}} {
					opt := withShards(fed.shards, fed.parallelism)
					batch := sessionTranscript(t, seed, a.algo, policy, oracles{rebuild: rebuild}, nil, false, opt)
					service := sessionTranscript(t, seed, a.algo, policy, oracles{rebuild: rebuild}, nil, true, opt)
					if service != batch {
						t.Fatalf("seed %d %s %v p=%d rebuild=%t shards=%d: service transcript diverged from batch\n--- batch ---\n%s\n--- service ---\n%s",
							seed, a.name, policy, fed.parallelism, rebuild, fed.shards, batch, service)
					}
				}
			}
		}
	}
}

// TestServiceMetricsNeutralityAndAccounting checks the service's
// observability contract both ways: attaching a registry does not change the
// transcript, and the service-level instruments account for the session —
// every round consumed its tick evaluation (plus the submit burst), the
// queue drained, and the plan applies all took the fast path on an
// undisturbed single-writer run.
func TestServiceMetricsNeutralityAndAccounting(t *testing.T) {
	bare := sessionTranscript(t, 7, alloc.AMP{}, metasched.MinimizeTime, oracles{}, nil, true)
	reg := metrics.New()
	instrumented := sessionTranscript(t, 7, alloc.AMP{}, metasched.MinimizeTime, oracles{}, reg, true)
	if bare != instrumented {
		t.Fatalf("metrics changed the service transcript\n--- bare ---\n%s\n--- instrumented ---\n%s", bare, instrumented)
	}
	snap := reg.Snapshot()
	rounds := snap.Counter("metasched/service/rounds_total")
	if rounds == 0 {
		t.Fatal("no service rounds recorded")
	}
	if n := snap.Counter("metasched/service/evals_enqueued_total"); n < rounds {
		t.Errorf("evals_enqueued_total = %d, want >= rounds_total = %d (every round enqueues its tick)", n, rounds)
	}
	if n := snap.Gauge("metasched/service/eval_queue_depth"); n != 0 {
		t.Errorf("eval_queue_depth = %d at session end, want 0 (queue must drain)", n)
	}
	if n := snap.Counter("metasched/plan/applied_revalidated_total"); n != 0 {
		t.Errorf("applied_revalidated_total = %d, want 0: nothing mutated the grid between plan and apply", n)
	}
	if n := snap.Counter("metasched/plan/applied_fastpath_total"); n == 0 {
		t.Error("applied_fastpath_total = 0, want > 0: the epoch fast path never engaged")
	}
	if n := snap.Counter("metasched/plan/windows_stale_total"); n != 0 {
		t.Errorf("windows_stale_total = %d, want 0 on an undisturbed run", n)
	}
}
