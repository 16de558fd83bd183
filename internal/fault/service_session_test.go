package fault_test

import (
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/fault"
	"ecosched/internal/metasched"
)

// TestServiceSessionMatchesBatch pins the service-mode session driver to the
// batch one: the same seeded scenario and fault plan, run once through
// fault.NewSession (inject → RunIteration) and once through
// fault.NewServiceSession (inject via the service handlers → Tick rounds),
// must produce byte-identical transcripts with the same number of applied
// events and zero audit violations. This is the fault-package view of the
// metasched service differential.
func TestServiceSessionMatchesBatch(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		batchSched := chaosScheduler(t, seed, alloc.AMP{}, metasched.MinimizeTime)
		plan := chaosPlan(t, batchSched.Grid().Pool(), seed, 0.6)
		var batch strings.Builder
		sess, err := fault.NewSession(batchSched, plan, &batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Run(chaosIterations); err != nil {
			t.Fatalf("seed %d batch: %v", seed, err)
		}

		svcSched := chaosScheduler(t, seed, alloc.AMP{}, metasched.MinimizeTime)
		svc, err := metasched.NewService(svcSched, metasched.ServiceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var service strings.Builder
		svcSess, err := fault.NewServiceSession(svc, plan, &service)
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
		if svcSess.Applied() != sess.Applied() {
			t.Fatalf("seed %d: Applied = %d (service) vs %d (batch)", seed, svcSess.Applied(), sess.Applied())
		}
		if n := len(svcSess.Audit().Violations()); n != 0 {
			t.Fatalf("seed %d: %d audit violations in service mode", seed, n)
		}
	}
	if _, err := fault.NewServiceSession(nil, nil, nil); err == nil {
		t.Fatal("NewServiceSession(nil) accepted a nil service")
	}
}
