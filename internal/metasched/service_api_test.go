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
)

// newStaleHarnessWithMetrics is newStaleHarness with a metrics registry
// attached, for the tests asserting the service instrument family.
func newStaleHarnessWithMetrics(t *testing.T, reg *metrics.Registry) *staleHarness {
	t.Helper()
	nodes := []*resource.Node{
		{Name: "n1", Performance: 1, Price: 2},
		{Name: "n2", Performance: 1, Price: 3},
	}
	pool, err := resource.NewPool(nodes)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gridsim.New(pool)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := metasched.New(metasched.Config{
		Algorithm:        alloc.ALP{},
		Policy:           metasched.MinimizeTime,
		Horizon:          400,
		Step:             50,
		MaxPostponements: 5,
		Metrics:          reg,
	}, grid)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := metasched.NewService(sched, metasched.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := &staleHarness{grid: grid, sched: sched, svc: svc}
	j := &job.Job{
		Name:     "j1",
		Priority: 1,
		Request:  job.ResourceRequest{Nodes: 1, Time: 50, MinPerformance: 1, MaxPrice: 10},
	}
	if err := svc.Submit(j); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestServiceConfigValidate pins the constructor's contract: a nil scheduler
// is rejected, and the (field-less) configuration always is accepted.
func TestServiceConfigValidate(t *testing.T) {
	if _, err := metasched.NewService(nil, metasched.ServiceConfig{}); err == nil {
		t.Fatal("NewService(nil) accepted a nil scheduler")
	}
	h := newStaleHarness(t, 1)
	if _, err := metasched.NewService(h.sched, metasched.ServiceConfig{}); err != nil {
		t.Fatalf("NewService(scheduler, ServiceConfig{}) = %v, want nil", err)
	}
}

// TestServiceAccessors covers the read-side API on a live round: the wrapped
// scheduler, the consumed evaluations (submit eval + tick eval in priority
// order), and the Plan views — Jobs and Windows in choice order, and the
// canonical serialization matching the open iteration's "chosen" lines.
func TestServiceAccessors(t *testing.T) {
	h := newStaleHarness(t, 1)
	if h.svc.Scheduler() != h.sched {
		t.Fatal("Scheduler() did not return the wrapped scheduler")
	}
	h.svc.EnqueueTick()
	r, err := h.svc.BeginRound()
	if err != nil {
		t.Fatal(err)
	}
	evals := r.Evals()
	if len(evals) != 2 {
		t.Fatalf("round consumed %d evals, want 2 (submit + tick)", len(evals))
	}
	if evals[0].Trigger != metasched.TriggerSubmit || evals[0].Subject != "j1" {
		t.Fatalf("evals[0] = %+v, want the j1 submit evaluation", evals[0])
	}
	if evals[1].Trigger != metasched.TriggerTick {
		t.Fatalf("evals[1] = %+v, want the tick evaluation", evals[1])
	}
	if err := r.Evaluate(); err != nil {
		t.Fatal(err)
	}
	p := r.Plan()
	if got := fmt.Sprint(p.Jobs()); got != "[j1]" {
		t.Fatalf("Plan.Jobs() = %v, want [j1]", got)
	}
	ws := p.Windows()
	if len(ws) != 1 || ws[0] != p.Choices[0].Window {
		t.Fatalf("Plan.Windows() = %v, want the single chosen window", ws)
	}
	var b strings.Builder
	p.CanonicalState(&b)
	want := fmt.Sprintf("chosen j1 -> %v\n", p.Choices[0].Window)
	if b.String() != want {
		t.Fatalf("Plan.CanonicalState = %q, want %q", b.String(), want)
	}
	b.Reset()
	r.Iteration().CanonicalState(&b)
	for _, line := range []string{"iteration open=", "batched j1", "chosen j1 -> "} {
		if !strings.Contains(b.String(), line) {
			t.Fatalf("Iteration.CanonicalState missing %q:\n%s", line, b.String())
		}
	}
	if err := r.Apply(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanNilViews pins the nil-plan contract every accessor shares: a nil
// *Plan is never stale, has no jobs or windows, and serializes to nothing.
func TestPlanNilViews(t *testing.T) {
	var p *metasched.Plan
	if p.Stale(42) {
		t.Fatal("nil plan reported stale")
	}
	if p.Jobs() != nil {
		t.Fatal("nil plan reported jobs")
	}
	if w := p.Windows(); w != nil {
		t.Fatalf("nil plan reported windows %v", w)
	}
	var b strings.Builder
	p.CanonicalState(&b)
	if b.Len() != 0 {
		t.Fatalf("nil plan serialized to %q", b.String())
	}
}

// TestEvalCoalescingMetric: a duplicate (trigger, subject) pending no later
// than the newcomer coalesces instead of enqueuing, observable as
// evals_coalesced_total without a second evals_enqueued_total.
func TestEvalCoalescingMetric(t *testing.T) {
	reg := metrics.New()
	h := newStaleHarnessWithMetrics(t, reg)
	depth := h.svc.QueueDepth()
	h.svc.EnqueueTick()
	h.svc.EnqueueTick()
	if got := h.svc.QueueDepth(); got != depth+1 {
		t.Fatalf("QueueDepth = %d after double EnqueueTick, want %d (coalesced)", got, depth+1)
	}
	snap := reg.Snapshot()
	if n := snap.Counter("metasched/service/evals_coalesced_total"); n != 1 {
		t.Fatalf("evals_coalesced_total = %d, want 1", n)
	}
	if n := snap.Counter("metasched/service/evals_enqueued_total"); n != int64(depth)+1 {
		t.Fatalf("evals_enqueued_total = %d, want %d", n, depth+1)
	}
	if _, err := h.svc.Tick(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Gauge("metasched/service/eval_queue_depth"); n != 0 {
		t.Fatalf("eval_queue_depth = %d after the drain tick, want 0", n)
	}
}
