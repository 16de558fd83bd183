package metasched_test

import (
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/metasched"
	"ecosched/internal/metrics"
)

// withShards returns a config option setting the federation's shard count
// and the per-shard producer parallelism (which needs k > 1).
func withShards(k, parallelism int) func(*metasched.Config) {
	return func(c *metasched.Config) {
		c.Shards = k
		c.Parallelism = parallelism
	}
}

// TestShardDifferential is the sharding equivalence suite: over 20 seeded
// random sessions (covering demand pricing, live local arrivals, and a
// mid-session node failure by seed selection), both algorithms, sequential
// and parallel per-shard producers, and both the live store and the rebuild
// oracle, the federated session at K ∈ {2, 4, 7} must produce a
// transcript byte-identical to the single-domain K=1 session: same committed
// windows, plan criteria, postponements, drops, and failure re-queues. The
// batch policy alternates by seed so both criteria are swept without doubling
// the run.
func TestShardDifferential(t *testing.T) {
	algos := []struct {
		name string
		algo alloc.Algorithm
	}{
		{"ALP", alloc.ALP{}},
		{"AMP", alloc.AMP{}},
	}
	for seed := uint64(1); seed <= 20; seed++ {
		policy := metasched.MinimizeTime
		if seed%2 == 1 {
			policy = metasched.MinimizeCost
		}
		for _, a := range algos {
			for _, rebuild := range []bool{false, true} {
				want := diffSessionTranscript(t, seed, a.algo, policy, oracles{rebuild: rebuild}, nil)
				for _, parallelism := range []int{1, 4} {
					for _, k := range []int{2, 4, 7} {
						got := diffSessionTranscript(t, seed, a.algo, policy, oracles{rebuild: rebuild}, nil, withShards(k, parallelism))
						if got != want {
							t.Fatalf("seed %d %s %v p=%d rebuild=%t: K=%d session diverged from K=1\n--- K=1 ---\n%s\n--- K=%d ---\n%s",
								seed, a.name, policy, parallelism, rebuild, k, want, k, got)
						}
					}
				}
			}
		}
	}
}

// TestShardLinearFallbackDifferential pins the transparent fallback: a
// sharded session on the linear oracle scan cannot stream per shard, so it
// searches the canonical merge of the shard stores — and must still be
// byte-identical to the unsharded linear session.
func TestShardLinearFallbackDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, a := range []alloc.Algorithm{alloc.ALP{}, alloc.AMP{}} {
			want := diffSessionTranscript(t, seed, a, metasched.MinimizeTime, oracles{linear: true}, nil)
			got := diffSessionTranscript(t, seed, a, metasched.MinimizeTime, oracles{linear: true}, nil, withShards(4, 1))
			if got != want {
				t.Fatalf("seed %d %s: sharded linear fallback diverged\n--- K=1 ---\n%s\n--- K=4 ---\n%s",
					seed, a.Name(), want, got)
			}
		}
	}
}

// TestShardedSteadyStateAdoptsViews extends the live-store steady-state pin
// to the federation: at K=2 each shard's store builds exactly once (two
// builds total, one per shard), the self-healing reset never fires, and the
// sharded search adopts the published shard views instead of rebuilding
// indexes of its own. The shard/ metric family must also be live: the count
// gauge, per-shard scan work, and the merge counters.
func TestShardedSteadyStateAdoptsViews(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		reg := metrics.New()
		diffSessionTranscript(t, 7, alloc.AMP{}, metasched.MinimizeTime, oracles{}, reg, withShards(2, parallelism))
		snap := reg.Snapshot()
		if n := snap.Counter("gridsim/store/rebuilds_total"); n != 2 {
			t.Errorf("parallelism %d: gridsim/store/rebuilds_total = %d, want exactly 2 (one per shard)", parallelism, n)
		}
		for _, name := range []string{"gridsim/store/shard0/rebuilds_total", "gridsim/store/shard1/rebuilds_total"} {
			if n := snap.Counter(name); n != 1 {
				t.Errorf("parallelism %d: %s = %d, want exactly 1", parallelism, name, n)
			}
		}
		if n := snap.Counter("gridsim/store/incoherent_drops_total"); n != 0 {
			t.Errorf("parallelism %d: gridsim/store/incoherent_drops_total = %d, want 0", parallelism, n)
		}
		if n := snap.Counter("alloc/AMP/index/rebuilds_total"); n != 0 {
			t.Errorf("parallelism %d: alloc/AMP/index/rebuilds_total = %d, want 0: the sharded search must adopt the shard views", parallelism, n)
		}
		if n := snap.Counter("gridsim/store/snapshots_total"); n == 0 {
			t.Errorf("parallelism %d: no store snapshots recorded — the live path did not serve the session", parallelism)
		}
		if n := snap.Gauge("shard/count"); n != 2 {
			t.Errorf("parallelism %d: shard/count = %d, want 2", parallelism, n)
		}
		if n := snap.Counter("shard/merge/candidates_total"); n == 0 {
			t.Errorf("parallelism %d: no merged candidates recorded", parallelism)
		}
		if n := snap.Counter("shard/scan_critical_path_total"); n == 0 {
			t.Errorf("parallelism %d: no scan critical path recorded", parallelism)
		}
		scanned := int64(0)
		for _, name := range []string{"shard/0/scan_slots_total", "shard/1/scan_slots_total"} {
			scanned += snap.Counter(name)
		}
		if scanned == 0 {
			t.Errorf("parallelism %d: no per-shard scan work recorded", parallelism)
		}
	}
}
