package fault_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/durable"
	"ecosched/internal/fault"
	"ecosched/internal/gridsim"
	"ecosched/internal/metasched"
	"ecosched/internal/sim"
)

// durableChaosFactory rebuilds the chaos scenario's pristine pre-journal
// service — pool, local load, retry policy, and the 8 submitted jobs all come
// deterministically from the seed, which is exactly the contract
// durable.Recover's factory must honor.
func durableChaosFactory(t testing.TB, seed uint64, algo alloc.Algorithm) durable.Factory {
	return func() (*metasched.Service, error) {
		sched := chaosScheduler(t, seed, algo, metasched.MinimizeTime)
		return metasched.NewService(sched, metasched.ServiceConfig{})
	}
}

// TestCrashStormSoak is the chaos soak's crash-storm mode: the full chaos
// session runs over the durable journaling wrapper and is crashed after every
// single round — the wrapper is dropped on the floor and rebuilt with
// durable.Recover (checkpoint restore on even cadence, full journal replay
// otherwise), then the session resumes where the plan left off. The storm
// must be invisible three ways: the state hash after every recovery equals
// the uncrashed run's hash at the same round, the recovery-coherence audit
// (journal applied-plan ledger vs scheduler placed set vs live reservations)
// stays clean after every recovery, and the transcript assembled across all
// ten crashed segments is byte-identical to the uncrashed session's. A
// crash-free durable run is compared too, proving the wrapper itself is
// transcript-neutral.
func TestCrashStormSoak(t *testing.T) {
	seeds := []uint64{3, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, a := range []struct {
			name string
			algo alloc.Algorithm
		}{{"ALP", alloc.ALP{}}, {"AMP", alloc.AMP{}}} {
			t.Run(fmt.Sprintf("seed%d-%s", seed, a.name), func(t *testing.T) {
				factory := durableChaosFactory(t, seed, a.algo)
				plan := chaosPlan(t, chaosScheduler(t, seed, a.algo, metasched.MinimizeTime).Grid().Pool(), seed, 0.6)

				// Uncrashed reference: plain service session, stepped so the
				// canonical state hash is captured at every round boundary.
				refSvc, err := factory()
				if err != nil {
					t.Fatal(err)
				}
				var base strings.Builder
				refSess, err := fault.NewServiceSession(refSvc, plan, &base)
				if err != nil {
					t.Fatal(err)
				}
				hashes := make([]uint64, chaosIterations+1)
				hashes[0] = durable.StateHash(refSvc)
				for i := 0; i < chaosIterations; i++ {
					if err := refSess.Step(); err != nil {
						t.Fatalf("reference step %d: %v", i, err)
					}
					hashes[i+1] = durable.StateHash(refSvc)
				}
				fault.WriteSummary(&base, refSvc.Scheduler(), refSess.Applied(), plan.Len())
				if !strings.Contains(base.String(), "fault ") {
					t.Fatal("chaos session injected no faults — the storm is not storming")
				}

				// Crash-free durable run: the wrapper must be transcript-neutral.
				dir := t.TempDir()
				cpEvery := 0
				if seed%2 != 0 {
					cpEvery = 2
				}
				neutralOpts := durable.Options{
					JournalPath:     filepath.Join(dir, "neutral.journal"),
					CheckpointPath:  filepath.Join(dir, "neutral.ckpt"),
					CheckpointEvery: cpEvery,
				}
				nSvc, err := factory()
				if err != nil {
					t.Fatal(err)
				}
				nds, err := durable.New(nSvc, neutralOpts)
				if err != nil {
					t.Fatal(err)
				}
				var neutral strings.Builder
				nSess, err := fault.NewDriverSession(nds, plan, &neutral)
				if err != nil {
					t.Fatal(err)
				}
				if err := nSess.Run(chaosIterations); err != nil {
					t.Fatalf("crash-free durable run: %v", err)
				}
				if neutral.String() != base.String() {
					t.Fatalf("durable wrapper changed the transcript\n--- plain ---\n%s\n--- durable ---\n%s",
						base.String(), neutral.String())
				}

				// The storm: crash and recover after every round.
				opts := durable.Options{
					JournalPath:     filepath.Join(dir, "storm.journal"),
					CheckpointPath:  filepath.Join(dir, "storm.ckpt"),
					CheckpointEvery: cpEvery,
				}
				sSvc, err := factory()
				if err != nil {
					t.Fatal(err)
				}
				ds, err := durable.New(sSvc, opts)
				if err != nil {
					t.Fatal(err)
				}
				var storm strings.Builder
				sess, err := fault.NewDriverSession(ds, plan, &storm)
				if err != nil {
					t.Fatal(err)
				}
				applied := 0
				for i := 0; i < chaosIterations; i++ {
					if err := sess.Step(); err != nil {
						t.Fatalf("storm round %d: %v", i, err)
					}
					applied = sess.Applied()
					if got := durable.StateHash(ds.Unwrap()); got != hashes[i+1] {
						t.Fatalf("round %d: pre-crash hash %x, reference %x", i, got, hashes[i+1])
					}
					// Crash: abandon the wrapper mid-flight and recover from disk.
					ds.Close()
					rds, rep, err := durable.Recover(opts, factory)
					if err != nil {
						t.Fatalf("recover after round %d: %v", i, err)
					}
					if got := durable.StateHash(rds.Unwrap()); got != hashes[i+1] {
						t.Fatalf("round %d: recovered hash %x, reference %x", i, got, hashes[i+1])
					}
					if cpEvery > 0 && i+1 >= cpEvery && !rep.CheckpointUsed {
						t.Fatalf("round %d: recovery ignored the checkpoint", i)
					}
					if err := fault.NewAudit(rds.Scheduler()).CheckRecoveryCoherence(rep.AppliedLive); err != nil {
						t.Fatalf("round %d: %v", i, err)
					}
					ds = rds
					sess, err = fault.NewDriverSession(ds, plan, &storm)
					if err != nil {
						t.Fatal(err)
					}
					if err := sess.Resume(applied); err != nil {
						t.Fatal(err)
					}
				}
				fault.WriteSummary(&storm, ds.Scheduler(), applied, plan.Len())
				ds.Close()
				if storm.String() != base.String() {
					t.Fatalf("crash-storm transcript diverged from uncrashed run\n--- uncrashed ---\n%s\n--- storm ---\n%s",
						base.String(), storm.String())
				}
			})
		}
	}
}

// TestSessionDrain pins the end-of-plan draining contract: Run(n) stops after
// exactly n rounds and Pending reports the work it left in flight — plan
// events not yet applied and service evaluations still queued (backoff-gated
// requeues above all). Drain finishes that tail under the same audit, errors
// when its round budget is too small, and leaves the session quiescent.
func TestSessionDrain(t *testing.T) {
	half := chaosIterations / 2
	sawPending := false
	for _, seed := range []uint64{3, 7, 11} {
		// Service mode: half-length run, then drain.
		sched := chaosScheduler(t, seed, alloc.AMP{}, metasched.MinimizeTime)
		svc, err := metasched.NewService(sched, metasched.ServiceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		plan := chaosPlan(t, sched.Grid().Pool(), seed, 0.6)
		var b strings.Builder
		sess, err := fault.NewServiceSession(svc, plan, &b)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < half; i++ {
			if err := sess.Step(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
		}
		if sess.Pending() == 0 {
			continue
		}
		sawPending = true
		if _, err := sess.Drain(0); err == nil {
			t.Fatalf("seed %d: Drain(0) with %d pending returned no error", seed, sess.Pending())
		}
		ran, err := sess.Drain(60)
		if err != nil {
			t.Fatalf("seed %d: drain: %v\ntranscript:\n%s", seed, err, b.String())
		}
		if ran == 0 {
			t.Fatalf("seed %d: drain ran no rounds with work pending", seed)
		}
		if sess.Pending() != 0 {
			t.Fatalf("seed %d: %d still pending after drain", seed, sess.Pending())
		}
		if sess.Applied() != plan.Len() {
			t.Fatalf("seed %d: drain finished with %d/%d events applied", seed, sess.Applied(), plan.Len())
		}
		if svc.QueueDepth() != 0 {
			t.Fatalf("seed %d: drain finished with %d evaluations queued", seed, svc.QueueDepth())
		}
		if v := sess.Audit().Violations(); len(v) > 0 {
			t.Fatalf("seed %d: %d audit violations during drain: %v", seed, len(v), v)
		}
		if !strings.Contains(b.String(), fmt.Sprintf("drained rounds=%d events=%d/%d\n", ran, plan.Len(), plan.Len())) {
			t.Fatalf("seed %d: drain footer missing from transcript:\n%s", seed, b.String())
		}
	}
	if !sawPending {
		t.Fatal("no seed left work pending after a half-length run — the drain path was never exercised")
	}

	// Batch mode: Pending counts unapplied plan events and Drain applies them.
	sched := chaosScheduler(t, 3, alloc.ALP{}, metasched.MinimizeTime)
	plan := chaosPlan(t, sched.Grid().Pool(), 3, 0.6)
	sess, err := fault.NewSession(sched, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < half; i++ {
		if err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if sess.Pending() != plan.Len()-sess.Applied() {
		t.Fatalf("batch Pending = %d, want the %d unapplied events", sess.Pending(), plan.Len()-sess.Applied())
	}
	if sess.Pending() > 0 {
		if _, err := sess.Drain(60); err != nil {
			t.Fatalf("batch drain: %v", err)
		}
		if sess.Applied() != plan.Len() || sess.Pending() != 0 {
			t.Fatalf("batch drain left %d pending, %d/%d events applied", sess.Pending(), sess.Applied(), plan.Len())
		}
	}

	// A resumed cursor is only valid on a fresh session and inside the plan.
	fresh, err := fault.NewSession(chaosScheduler(t, 3, alloc.ALP{}, metasched.MinimizeTime), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Resume(plan.Len() + 1); err == nil {
		t.Fatal("Resume accepted a cursor past the plan end")
	}
	if err := fresh.Resume(1); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Resume(1); err == nil {
		t.Fatal("Resume accepted a second fast-forward")
	}
}

// TestCheckRecoveryCoherence drives the recovery-coherence invariant against
// hand-made incoherent states — a placed job missing from the journal ledger,
// a journaled applied plan whose job vanished from the placed set, and a live
// reservation no journal record covers — to prove the crash-storm's "clean
// after every recovery" claim has teeth.
func TestCheckRecoveryCoherence(t *testing.T) {
	sched := chaosScheduler(t, 1, alloc.ALP{}, metasched.MinimizeTime)
	a := fault.NewAudit(sched)
	if err := a.CheckRecoveryCoherence(nil); err != nil {
		t.Fatalf("pristine scheduler with empty ledger flagged: %v", err)
	}
	for i := 0; i < 4 && sched.PlacedCount() == 0; i++ {
		if _, err := sched.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	placed := sched.PlacedJobs()
	if len(placed) == 0 {
		t.Fatal("scenario placed no jobs — the coherence checks below would be vacuous")
	}
	if err := a.CheckRecoveryCoherence(placed); err != nil {
		t.Fatalf("coherent state flagged: %v", err)
	}
	if err := a.CheckRecoveryCoherence(placed[1:]); err == nil ||
		!strings.Contains(err.Error(), "no journaled applied plan") {
		t.Fatalf("placed job missing from the ledger not flagged, got: %v", err)
	}
	if err := a.CheckRecoveryCoherence(append(append([]string{}, placed...), "zz-ghost")); err == nil ||
		!strings.Contains(err.Error(), "lost") {
		t.Fatalf("ledger entry without a placed job not flagged, got: %v", err)
	}
	// An unlogged booking smuggled past the scheduler: live VO reservation
	// with no ledger cover.
	now := sched.Grid().Now()
	sched.Grid().ForceBook(gridsim.Task{Name: "orphan", Node: 0, Span: sim.Interval{Start: now.Add(10), End: now.Add(100)}})
	if err := a.CheckRecoveryCoherence(placed); err == nil ||
		!strings.Contains(err.Error(), "live reservation") {
		t.Fatalf("unlogged live reservation not flagged, got: %v", err)
	}
}
