package fault_test

import (
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/fault"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/sim"
)

// stepDriver is a ServiceDriver with no service around the scheduler: the
// fault handlers go straight to the scheduler and every round is the bare
// BeginIteration → Plan → Apply → Finish step sequence. It has no evaluation
// queue, so its QueueDepth is always zero.
type stepDriver struct{ s *metasched.Scheduler }

func (d stepDriver) Scheduler() *metasched.Scheduler { return d.s }
func (d stepDriver) QueueDepth() int                 { return 0 }
func (d stepDriver) Submit(j *job.Job) error         { return d.s.Submit(j) }

func (d stepDriver) HandleNodeFailure(nodeLabel string) ([]string, error) {
	return d.s.HandleNodeFailure(nodeLabel)
}

func (d stepDriver) HandleNodeRecovery(nodeLabel string) error {
	return d.s.HandleNodeRecovery(nodeLabel)
}

func (d stepDriver) HandleRevocation(nodeLabel string, span sim.Interval) ([]string, error) {
	return d.s.HandleRevocation(nodeLabel, span)
}

func (d stepDriver) Tick() (*metasched.IterationReport, error) {
	it, err := d.s.BeginIteration()
	if err != nil {
		return nil, err
	}
	if err := it.Plan(); err != nil {
		return nil, err
	}
	if err := it.Apply(); err != nil {
		return nil, err
	}
	return it.Finish()
}

// TestServiceSessionMatchesBatch pins the service-mode session driver to the
// batch step sequence: the same seeded scenario and fault plan, run once
// through a fault session on a bare scheduler (inject via the scheduler's
// handlers → BeginIteration/Plan/Apply/Finish) and once through a fault
// session on a metasched.Service (inject via the service handlers → Tick
// rounds), must produce byte-identical transcripts with the same number of
// applied events and zero audit violations. This is the fault-package view
// of the metasched service differential.
func TestServiceSessionMatchesBatch(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		batchSched := chaosService(t, seed, alloc.AMP{}, metasched.MinimizeTime).Scheduler()
		plan := chaosPlan(t, batchSched.Grid().Pool(), seed, 0.6)
		var batch strings.Builder
		sess, err := fault.NewSession(stepDriver{batchSched}, plan, &batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Run(chaosIterations); err != nil {
			t.Fatalf("seed %d batch: %v", seed, err)
		}

		svc := chaosService(t, seed, alloc.AMP{}, metasched.MinimizeTime)
		var service strings.Builder
		svcSess, err := fault.NewSession(svc, plan, &service)
		if err != nil {
			t.Fatal(err)
		}
		if err := svcSess.Run(chaosIterations); err != nil {
			t.Fatalf("seed %d service: %v", seed, err)
		}

		if batch.String() != service.String() {
			t.Fatalf("seed %d: service transcript diverged from batch:\n--- batch ---\n%s\n--- service ---\n%s",
				seed, batch.String(), service.String())
		}
		if sess.Applied() == 0 {
			t.Fatalf("seed %d: no plan event applied; the comparison covers no fault handling", seed)
		}
		if svcSess.Applied() != sess.Applied() {
			t.Fatalf("seed %d: Applied = %d (service) vs %d (batch)", seed, svcSess.Applied(), sess.Applied())
		}
		if n := len(svcSess.Audit().Violations()); n != 0 {
			t.Fatalf("seed %d: %d audit violations in service mode", seed, n)
		}
		if n := len(sess.Audit().Violations()); n != 0 {
			t.Fatalf("seed %d: %d audit violations in batch mode", seed, n)
		}
	}
}
