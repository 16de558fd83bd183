package metasched_test

import (
	"strings"
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
)

// stepGrid builds a tiny deterministic environment: two identical nodes in
// one domain, fully vacant.
func stepGrid(t *testing.T) (*gridsim.Grid, *resource.Pool) {
	t.Helper()
	pool, err := resource.NewPool([]*resource.Node{
		{Name: "n1", Performance: 1, Price: 2, Domain: "d0"},
		{Name: "n2", Performance: 1, Price: 3, Domain: "d0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gridsim.New(pool)
	if err != nil {
		t.Fatal(err)
	}
	return grid, pool
}

func stepScheduler(t *testing.T, grid *gridsim.Grid) *metasched.Scheduler {
	t.Helper()
	s, err := metasched.New(metasched.Config{
		Algorithm:        alloc.ALP{},
		Policy:           metasched.MinimizeTime,
		Horizon:          200,
		Step:             50,
		MaxPostponements: 4,
	}, grid)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func stepJob(name string) *job.Job {
	return &job.Job{Name: name, Request: job.ResourceRequest{
		Nodes: 1, Time: 40, MinPerformance: 1, MaxPrice: 10,
	}}
}

// conserved fails the test unless the job ledger balances: every submitted
// job is exactly one of queued, placed, or dropped.
func conserved(t *testing.T, s *metasched.Scheduler) {
	t.Helper()
	sub, q, p, d := s.SubmittedCount(), s.QueueLength(), s.PlacedCount(), len(s.DroppedJobs())
	if sub != q+p+d {
		t.Fatalf("job conservation broken: %d submitted != %d queued + %d placed + %d dropped", sub, q, p, d)
	}
}

// TestStepSequenceMatchesTick proves a service round is the bare step
// sequence: two identical sessions, one driven by Service.Tick and one by
// Begin/Plan/Apply/Finish with nothing interleaved and no service around the
// scheduler, produce identical reports and identical grid and scheduler
// canonical states.
func TestStepSequenceMatchesTick(t *testing.T) {
	run := func(viaService bool) (string, *metasched.IterationReport) {
		grid, _ := stepGrid(t)
		s := stepScheduler(t, grid)
		svc, err := metasched.NewService(s, metasched.ServiceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a", "b", "c"} {
			if err := svc.Submit(stepJob(name)); err != nil {
				t.Fatal(err)
			}
		}
		var rep *metasched.IterationReport
		for i := 0; i < 3; i++ {
			if viaService {
				rep, err = svc.Tick()
			} else {
				rep, err = metasched.RunSteps(s)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		grid.CanonicalState(&b)
		s.CanonicalState(&b)
		return b.String(), rep
	}
	tick, tickRep := run(true)
	step, stepRep := run(false)
	if tick != step {
		t.Fatalf("step-driven session diverged from Service.Tick:\n--- tick ---\n%s\n--- steps ---\n%s", tick, step)
	}
	if tickRep.Iteration != stepRep.Iteration || len(tickRep.Placed) != len(stepRep.Placed) {
		t.Fatalf("reports diverged: tick %+v vs steps %+v", tickRep, stepRep)
	}
}

// TestApplyStaleWindowPostpones is the regression test for the
// commit-path leak: before the step refactor, a window that failed to
// commit aborted the iteration after earlier windows had already booked,
// leaving the job both queued and placed (submitted != queued + placed +
// dropped). Now a mid-iteration node failure makes the planned window
// stale, Apply postpones the job cleanly, and the ledger stays balanced.
func TestApplyStaleWindowPostpones(t *testing.T) {
	grid, _ := stepGrid(t)
	s := stepScheduler(t, grid)
	if err := s.Submit(stepJob("solo")); err != nil {
		t.Fatal(err)
	}
	it, err := s.BeginIteration()
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Plan(); err != nil {
		t.Fatal(err)
	}
	// The environment shifts between Plan and Apply: both nodes crash, so
	// whatever window the plan chose can no longer be committed.
	for _, n := range []string{"n1", "n2"} {
		if _, err := s.HandleNodeFailure(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := it.Apply(); err != nil {
		t.Fatalf("stale window must postpone, not error: %v", err)
	}
	if it.StaleWindows() != 1 {
		t.Fatalf("StaleWindows = %d, want 1", it.StaleWindows())
	}
	rep, err := it.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Placed) != 0 || len(rep.Postponed) != 1 || rep.Postponed[0] != "solo" {
		t.Fatalf("report = placed %v postponed %v, want solo postponed", rep.Placed, rep.Postponed)
	}
	if s.PlacedCount() != 0 {
		t.Fatal("stale commit leaked a placed record")
	}
	if tasks := grid.AllTasks(); len(tasks) != 0 {
		t.Fatalf("stale commit leaked bookings: %v", tasks)
	}
	conserved(t, s)

	// After the nodes recover the job schedules normally.
	for _, n := range []string{"n1", "n2"} {
		if err := s.HandleNodeRecovery(n); err != nil {
			t.Fatal(err)
		}
	}
	placed := false
	for i := 0; i < 4 && !placed; i++ {
		rep, err := metasched.RunSteps(s)
		if err != nil {
			t.Fatal(err)
		}
		placed = len(rep.Placed) == 1
	}
	if !placed {
		t.Fatal("job never recovered from the stale window")
	}
	conserved(t, s)
}

// TestApplyClockOvertakesWindow covers the second staleness cause: a retry
// tick advancing the clock past the planned window's start between Plan and
// Apply. The commit is rejected (bookings cannot start in the past) and the
// job is postponed with the ledger intact.
func TestApplyClockOvertakesWindow(t *testing.T) {
	grid, _ := stepGrid(t)
	s := stepScheduler(t, grid)
	if err := s.Submit(stepJob("late")); err != nil {
		t.Fatal(err)
	}
	it, err := s.BeginIteration()
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Plan(); err != nil {
		t.Fatal(err)
	}
	// A fully vacant grid plans the window at the current time, so any
	// clock advance overtakes it.
	if err := grid.Advance(grid.Now().Add(10)); err != nil {
		t.Fatal(err)
	}
	if err := it.Apply(); err != nil {
		t.Fatal(err)
	}
	if it.StaleWindows() != 1 || s.PlacedCount() != 0 {
		t.Fatalf("stale=%d placed=%d, want 1 and 0", it.StaleWindows(), s.PlacedCount())
	}
	if _, err := it.Finish(); err != nil {
		t.Fatal(err)
	}
	conserved(t, s)
}

// TestStepMisuseGuards pins the step protocol: Plan twice, Apply before
// Plan, Finish before Apply, and Finish twice are all rejected without
// touching scheduler state.
func TestStepMisuseGuards(t *testing.T) {
	grid, _ := stepGrid(t)
	s := stepScheduler(t, grid)
	if err := s.Submit(stepJob("guard")); err != nil {
		t.Fatal(err)
	}
	it, err := s.BeginIteration()
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Apply(); err == nil {
		t.Fatal("Apply before Plan accepted")
	}
	if err := it.Plan(); err != nil {
		t.Fatal(err)
	}
	if err := it.Plan(); err == nil {
		t.Fatal("second Plan accepted")
	}
	if _, err := it.Finish(); err == nil {
		t.Fatal("Finish before Apply accepted")
	}
	if err := it.Apply(); err != nil {
		t.Fatal(err)
	}
	if err := it.Apply(); err == nil {
		t.Fatal("second Apply accepted")
	}
	if _, err := it.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := it.Finish(); err == nil {
		t.Fatal("second Finish accepted")
	}
	conserved(t, s)
}
