package metasched_test

import (
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/metasched"
	"ecosched/internal/metrics"
)

// TestMetricsDoNotPerturbScheduling replays the full differential sweep — 20
// seeded sessions, both algorithms, both batch policies, demand pricing,
// local arrivals and node failures mixed in by the seed schedule — once with
// observability off and once with a live registry attached, and asserts the
// session transcripts are byte-identical. Instrumentation must never change
// a scheduling decision.
func TestMetricsDoNotPerturbScheduling(t *testing.T) {
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
				off := diffSessionTranscript(t, seed, a.algo, policy, oracles{}, nil)
				on := diffSessionTranscript(t, seed, a.algo, policy, oracles{}, metrics.New())
				if on != off {
					t.Fatalf("seed %d %s %v: transcript changed with metrics attached\n--- metrics off ---\n%s\n--- metrics on ---\n%s",
						seed, a.name, policy, off, on)
				}
			}
		}
	}
}

// TestMetricsSnapshotDeterministic runs two identical seeded sessions with
// fresh registries and asserts the snapshots encode byte-identically — for
// the single-domain search and for a K=2 federation whose per-shard scan
// producers run on 4 goroutines. The seeds cover demand pricing (12, 15),
// live local arrivals (12, 20) and node failures (15, 20).
func TestMetricsSnapshotDeterministic(t *testing.T) {
	for _, seed := range []uint64{7, 12, 15, 20} {
		for _, fed := range []struct{ shards, parallelism int }{{1, 1}, {2, 4}} {
			r1 := metrics.New()
			diffSessionTranscript(t, seed, alloc.AMP{}, metasched.MinimizeTime, oracles{}, r1, withShards(fed.shards, fed.parallelism))
			r2 := metrics.New()
			diffSessionTranscript(t, seed, alloc.AMP{}, metasched.MinimizeTime, oracles{}, r2, withShards(fed.shards, fed.parallelism))
			s1, s2 := r1.Snapshot().Text(), r2.Snapshot().Text()
			if s1 != s2 {
				t.Fatalf("seed %d shards %d parallelism %d: identical sessions produced different snapshots\n--- first ---\n%s\n--- second ---\n%s",
					seed, fed.shards, fed.parallelism, s1, s2)
			}
			if s1 == "" {
				t.Fatalf("seed %d: session produced an empty snapshot", seed)
			}
			for _, name := range []string{
				"metasched/iterations_total",
				"metasched/jobs_placed_total",
				"alloc/AMP/searches_total",
				"dp/frontier/builds_total",
				"gridsim/commits_total",
			} {
				if !strings.Contains(s1, name) {
					t.Errorf("seed %d: snapshot missing %s:\n%s", seed, name, s1)
				}
			}
		}
	}
}

// TestMetricsCrossCheckSession verifies the instruments agree with the
// session's own reports: iterations, placements and commits observed by the
// registry must equal what the IterationReports record.
func TestMetricsCrossCheckSession(t *testing.T) {
	reg := metrics.New()
	transcript := diffSessionTranscript(t, 7, alloc.AMP{}, metasched.MinimizeTime, oracles{}, reg)
	snap := reg.Snapshot()
	iters := snap.Counter("metasched/iterations_total")
	if iters <= 0 {
		t.Fatalf("no iterations observed; transcript:\n%s", transcript)
	}
	placed := snap.Counter("metasched/jobs_placed_total")
	commits := snap.Counter("gridsim/commits_total")
	if placed != commits {
		t.Errorf("placed jobs %d != committed windows %d", placed, commits)
	}
	if got := snap.HistogramCount("metasched/batch_jobs"); got != iters {
		t.Errorf("batch_jobs histogram has %d observations over %d iterations", got, iters)
	}
	if found := snap.Counter("alloc/AMP/windows_found_total"); found < snap.Counter("metasched/alternatives_found_total") {
		t.Errorf("search found %d windows but the scheduler accounted %d alternatives",
			found, snap.Counter("metasched/alternatives_found_total"))
	}
}
