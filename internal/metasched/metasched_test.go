package metasched_test

import (
	"testing"

	"ecosched/internal/alloc"
	"ecosched/internal/experiments"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/trace"
)

func validConfig() metasched.Config {
	return metasched.Config{
		Algorithm: alloc.AMP{},
		Policy:    metasched.MinimizeTime,
		Horizon:   600,
		Step:      100,
	}
}

func section4Grid(t *testing.T) (*gridsim.Grid, *job.Batch) {
	t.Helper()
	grid, batch, err := experiments.Section4Environment()
	if err != nil {
		t.Fatal(err)
	}
	return grid, batch
}

func TestConfigValidate(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mods := []func(*metasched.Config){
		func(c *metasched.Config) { c.Algorithm = nil },
		func(c *metasched.Config) { c.Horizon = 0 },
		func(c *metasched.Config) { c.Step = 0 },
		func(c *metasched.Config) { c.MaxBatch = -1 },
		func(c *metasched.Config) { c.Parallelism = -1 },
		// Parallelism bounds the per-shard producers, so without shards
		// it would silently do nothing.
		func(c *metasched.Config) { c.Parallelism = 4 },
		func(c *metasched.Config) { c.Parallelism, c.Shards = 4, 1 },
	}
	for i, mod := range mods {
		c := validConfig()
		mod(&c)
		if c.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	sharded := validConfig()
	sharded.Parallelism, sharded.Shards = 4, 2
	if err := sharded.Validate(); err != nil {
		t.Errorf("parallel producers over 2 shards rejected: %v", err)
	}
}

func TestNewScheduler(t *testing.T) {
	grid, _ := section4Grid(t)
	if _, err := metasched.New(validConfig(), nil); err == nil {
		t.Error("nil grid accepted")
	}
	s, err := metasched.New(validConfig(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if s.QueueLength() != 0 || s.Grid() != grid {
		t.Error("fresh scheduler state wrong")
	}
}

func TestSubmit(t *testing.T) {
	grid, batch := section4Grid(t)
	s, _ := metasched.New(validConfig(), grid)
	for _, j := range batch.Jobs() {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if s.QueueLength() != 3 {
		t.Fatalf("queue length: %d", s.QueueLength())
	}
	if err := s.Submit(batch.At(0)); err == nil {
		t.Error("duplicate submission accepted")
	}
	if err := s.Submit(&job.Job{Name: "bad"}); err == nil {
		t.Error("invalid job accepted")
	}
}

func TestRunIterationSchedulesSection4Batch(t *testing.T) {
	grid, batch := section4Grid(t)
	s, _ := metasched.New(validConfig(), grid)
	for _, j := range batch.Jobs() {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatchSize != 3 {
		t.Errorf("batch size: %d", rep.BatchSize)
	}
	if len(rep.Placed) != 3 {
		t.Fatalf("placed: %d, want all 3 (postponed %v)", len(rep.Placed), rep.Postponed)
	}
	if s.QueueLength() != 0 {
		t.Errorf("queue should be empty, has %d", s.QueueLength())
	}
	if rep.PlanTime <= 0 || rep.PlanCost <= 0 {
		t.Error("plan criteria missing")
	}
	// Committed reservations appear in the grid as non-local tasks.
	var reservations int
	for _, tk := range grid.AllTasks() {
		if !tk.Local {
			reservations++
		}
	}
	if reservations != 2+3+2 { // one per placed task
		t.Errorf("reservations: %d, want 7", reservations)
	}
	// The clock advanced.
	if grid.Now() != 100 {
		t.Errorf("clock: %v", grid.Now())
	}
}

func TestIterationPostponesUnservableJob(t *testing.T) {
	grid, _ := section4Grid(t)
	cfg := validConfig()
	cfg.MaxPostponements = 2
	s, _ := metasched.New(cfg, grid)
	// 6 nodes exist but the job wants 7 → never servable.
	impossible := &job.Job{Name: "huge", Priority: 1, Request: job.ResourceRequest{
		Nodes: 7, Time: 50, MinPerformance: 1, MaxPrice: 100}}
	if err := s.Submit(impossible); err != nil {
		t.Fatal(err)
	}
	rep1, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.Postponed) != 1 || len(rep1.Placed) != 0 {
		t.Fatalf("first iteration: placed=%d postponed=%v", len(rep1.Placed), rep1.Postponed)
	}
	rep2, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Dropped) != 1 {
		t.Fatalf("second iteration should drop after cap: %+v", rep2)
	}
	if s.QueueLength() != 0 {
		t.Error("dropped job still queued")
	}
}

func TestRunUntilDrained(t *testing.T) {
	grid, batch := section4Grid(t)
	cfg := validConfig()
	cfg.MaxBatch = 1 // one job per iteration
	s, _ := metasched.New(cfg, grid)
	for _, j := range batch.Jobs() {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	reports, err := s.RunUntilDrained(10)
	if err != nil {
		t.Fatal(err)
	}
	if s.QueueLength() != 0 {
		t.Fatalf("queue not drained: %d left after %d iterations", s.QueueLength(), len(reports))
	}
	if len(reports) != 3 {
		t.Errorf("iterations: %d, want 3 (MaxBatch=1)", len(reports))
	}
	var placed int
	for _, r := range reports {
		placed += len(r.Placed)
		if r.BatchSize > 1 {
			t.Errorf("MaxBatch violated: %d", r.BatchSize)
		}
	}
	if placed != 3 {
		t.Errorf("placed: %d", placed)
	}
}

func TestEmptyQueueIterationAdvancesClock(t *testing.T) {
	grid, _ := section4Grid(t)
	s, _ := metasched.New(validConfig(), grid)
	rep, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatchSize != 0 || len(rep.Placed) != 0 {
		t.Error("empty iteration should do nothing")
	}
	if grid.Now() != 100 {
		t.Errorf("clock should advance on empty iterations: %v", grid.Now())
	}
}

func TestCostPolicyAlsoSchedules(t *testing.T) {
	grid, batch := section4Grid(t)
	cfg := validConfig()
	cfg.Policy = metasched.MinimizeCost
	cfg.Algorithm = alloc.ALP{}
	s, _ := metasched.New(cfg, grid)
	for _, j := range batch.Jobs() {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Placed) == 0 {
		t.Error("cost policy placed nothing")
	}
	if metasched.MinimizeCost.String() != "minimize-cost" ||
		metasched.MinimizeTime.String() != "minimize-time" {
		t.Error("policy names wrong")
	}
}

func TestWaitTimeAccounting(t *testing.T) {
	pool := resource.MustNewPool([]*resource.Node{
		{Name: "cpu1", Performance: 1, Price: 1},
	})
	grid, err := gridsim.New(pool)
	if err != nil {
		t.Fatal(err)
	}
	// Node busy until 200; a job submitted at time 0 waits.
	if err := grid.BookLocal("p1", "cpu1", 0, 200); err != nil {
		t.Fatal(err)
	}
	s, _ := metasched.New(validConfig(), grid)
	j := &job.Job{Name: "waiter", Priority: 1, Request: job.ResourceRequest{
		Nodes: 1, Time: 50, MinPerformance: 1, MaxPrice: 10}}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Placed) != 1 {
		t.Fatal("job not placed")
	}
	if rep.Placed[0].WaitTime != sim.Duration(200) {
		t.Errorf("wait time: got %v, want 200", rep.Placed[0].WaitTime)
	}
}

func TestDemandPricingRaisesCostUnderLoad(t *testing.T) {
	run := func(pricing *metasched.DemandPricing, preload bool) sim.Money {
		grid, batch := section4Grid(t)
		if preload {
			// Extra local load raises utilization and thus the factor.
			if err := grid.BookLocal("px1", "cpu5", 450, 600); err != nil {
				t.Fatal(err)
			}
			if err := grid.BookLocal("px2", "cpu3", 450, 600); err != nil {
				t.Fatal(err)
			}
		}
		cfg := validConfig()
		cfg.DemandPricing = pricing
		s, _ := metasched.New(cfg, grid)
		// Only the first job, to keep the comparison clean.
		if err := s.Submit(batch.At(0)); err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Placed) != 1 {
			t.Fatalf("job not placed (postponed %v)", rep.Postponed)
		}
		if pricing != nil && rep.PriceFactor <= 0 {
			t.Error("price factor not reported")
		}
		return rep.PlanCost
	}
	base := run(nil, false)
	surged := run(&metasched.DemandPricing{MinFactor: 1.0, MaxFactor: 2.0}, false)
	if surged < base {
		t.Errorf("demand pricing lowered cost: base %v, surged %v", base, surged)
	}
	idleFavoring := run(&metasched.DemandPricing{MinFactor: 0.5, MaxFactor: 1.0}, false)
	if idleFavoring >= base {
		t.Errorf("idle discount did not lower cost: base %v, discounted %v", base, idleFavoring)
	}
}

func TestDemandPricingValidation(t *testing.T) {
	grid, _ := section4Grid(t)
	cfg := validConfig()
	cfg.DemandPricing = &metasched.DemandPricing{MinFactor: 0, MaxFactor: 1}
	if _, err := metasched.New(cfg, grid); err == nil {
		t.Error("zero min factor accepted")
	}
	cfg.DemandPricing = &metasched.DemandPricing{MinFactor: 2, MaxFactor: 1}
	if _, err := metasched.New(cfg, grid); err == nil {
		t.Error("inverted factors accepted")
	}
}

func TestTraceRecordsSession(t *testing.T) {
	grid, batch := section4Grid(t)
	rec := trace.NewRecorder(256)
	cfg := validConfig()
	cfg.Trace = rec
	cfg.DemandPricing = &metasched.DemandPricing{MinFactor: 0.9, MaxFactor: 1.2}
	s, _ := metasched.New(cfg, grid)
	for _, j := range batch.Jobs() {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RunIteration(); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("trace recorded nothing")
	}
	if len(rec.ByKind(trace.SearchStarted)) != 1 {
		t.Error("search start not recorded")
	}
	if len(rec.ByKind(trace.WindowFound)) == 0 {
		t.Error("windows not recorded")
	}
	if len(rec.ByKind(trace.Committed)) != 3 {
		t.Errorf("commits: %d, want 3", len(rec.ByKind(trace.Committed)))
	}
	if len(rec.ByKind(trace.Repriced)) != 1 {
		t.Error("repricing not recorded")
	}
	if len(rec.ByKind(trace.PlanChosen)) != 1 {
		t.Error("plan choice not recorded")
	}
	// Every committed job's history is reconstructable by name.
	if len(rec.ByJob("job2")) == 0 {
		t.Error("job2 history empty")
	}
}

func TestHandleNodeFailureRequeuesAffectedJobs(t *testing.T) {
	grid, batch := section4Grid(t)
	s, _ := metasched.New(validConfig(), grid)
	for _, j := range batch.Jobs() {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Placed) != 3 {
		t.Fatalf("setup: placed %d", len(rep.Placed))
	}
	// Find which jobs run on cpu4, then fail it.
	affected := map[string]bool{}
	for _, p := range rep.Placed {
		if p.Window.Window.UsesNode("cpu4") {
			affected[p.Job.Name] = true
		}
	}
	if len(affected) == 0 {
		t.Fatal("setup: no job on cpu4")
	}
	requeued, err := s.HandleNodeFailure("cpu4")
	if err != nil {
		t.Fatal(err)
	}
	if len(requeued) != len(affected) {
		t.Fatalf("requeued %v, want the %d jobs on cpu4", requeued, len(affected))
	}
	for _, name := range requeued {
		if !affected[name] {
			t.Errorf("job %s requeued but was not on cpu4", name)
		}
	}
	if s.QueueLength() != len(affected) {
		t.Errorf("queue length %d", s.QueueLength())
	}
	// No reservation of a re-queued job survives anywhere.
	for _, tk := range grid.AllTasks() {
		if !tk.Local && affected[tk.Name] {
			t.Errorf("stale reservation for %s on node %d", tk.Name, tk.Node)
		}
	}
	// The next iterations re-place the jobs on surviving nodes.
	reports, err := s.RunUntilDrained(6)
	if err != nil {
		t.Fatal(err)
	}
	replaced := 0
	for _, r := range reports {
		for _, p := range r.Placed {
			replaced++
			if p.Window.Window.UsesNode("cpu4") {
				t.Errorf("job %s re-placed on the failed node", p.Job.Name)
			}
		}
	}
	if replaced != len(affected) {
		t.Errorf("re-placed %d of %d jobs", replaced, len(affected))
	}
	if _, err := s.HandleNodeFailure("nope"); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestLocalArrivalsKeepResourcesNonDedicated(t *testing.T) {
	pool := resource.MustNewPool([]*resource.Node{
		{Name: "a", Performance: 1, Price: 1},
		{Name: "b", Performance: 1, Price: 1},
	})
	grid, err := gridsim.New(pool)
	if err != nil {
		t.Fatal(err)
	}
	cfg := validConfig()
	cfg.LocalArrivals = &metasched.LocalArrivals{
		Load: gridsim.LocalLoad{MeanGap: 50, DurMin: 20, DurMax: 60},
		RNG:  sim.NewRNG(3),
	}
	s, err := metasched.New(cfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	// Several empty iterations: local tasks must keep appearing in the
	// sliding horizon.
	for i := 0; i < 4; i++ {
		if _, err := s.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	var locals int
	for _, tk := range grid.AllTasks() {
		if tk.Local {
			locals++
		}
	}
	if locals == 0 {
		t.Fatal("no local tasks injected across iterations")
	}
	// Utilization over the remaining horizon stays positive.
	if u := grid.Utilization(grid.Now() + 600); u <= 0 {
		t.Errorf("utilization %v with arrivals configured", u)
	}
}

func TestLocalArrivalsValidation(t *testing.T) {
	grid, _ := section4Grid(t)
	cfg := validConfig()
	cfg.LocalArrivals = &metasched.LocalArrivals{
		Load: gridsim.LocalLoad{MeanGap: 50, DurMin: 20, DurMax: 60},
	}
	if _, err := metasched.New(cfg, grid); err == nil {
		t.Error("missing RNG accepted")
	}
	cfg.LocalArrivals = &metasched.LocalArrivals{
		Load: gridsim.LocalLoad{MeanGap: -1, DurMin: 1, DurMax: 2},
		RNG:  sim.NewRNG(1),
	}
	if _, err := metasched.New(cfg, grid); err == nil {
		t.Error("invalid load accepted")
	}
}

// TestSubmitRejectsPlacedJob: once a job is committed to the grid its name
// stays live in the scheduler's placed map (failure handling and CancelJob
// release reservations by name), so re-submitting that name must be
// rejected just like a queued duplicate.
func TestSubmitRejectsPlacedJob(t *testing.T) {
	grid, batch := section4Grid(t)
	s, _ := metasched.New(validConfig(), grid)
	for _, j := range batch.Jobs() {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Placed) != 3 {
		t.Fatalf("placed %d jobs, want 3", len(rep.Placed))
	}
	if err := s.Submit(batch.At(0)); err == nil {
		t.Fatal("re-submitting a placed job was accepted; its reservations would alias the old job's")
	}
	fresh := *batch.At(0)
	fresh.Name = "fresh"
	if err := s.Submit(&fresh); err != nil {
		t.Fatalf("a genuinely new job was rejected: %v", err)
	}
}

// TestMaxBudgetStatesLimitsDPStates proves Config.MaxBudgetStates reaches
// the optimizer. With states=1 the money grid collapses to one cell of size
// B*; every alternative's cost ceils to a full cell, so a 3-job batch needs
// 3 cells against a quota of 1 — infeasible — and the whole batch is
// postponed. The exact DP (states=0) schedules the same batch outright.
func TestMaxBudgetStatesLimitsDPStates(t *testing.T) {
	exactGrid, batch := section4Grid(t)
	exact, _ := metasched.New(validConfig(), exactGrid)
	coarseGrid, _ := section4Grid(t)
	cfg := validConfig()
	cfg.MaxBudgetStates = 1
	coarse, err := metasched.New(cfg, coarseGrid)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range batch.Jobs() {
		if err := exact.Submit(j); err != nil {
			t.Fatal(err)
		}
		if err := coarse.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	exactRep, err := exact.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if len(exactRep.Placed) != 3 {
		t.Fatalf("exact DP placed %d jobs, want 3", len(exactRep.Placed))
	}
	coarseRep, err := coarse.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if len(coarseRep.Placed) != 0 || len(coarseRep.Postponed) != 3 {
		t.Fatalf("MaxBudgetStates=1 placed %d / postponed %d; a one-cell budget grid must make the 3-job batch infeasible (field not wired through?)",
			len(coarseRep.Placed), len(coarseRep.Postponed))
	}
}
