package main

import (
	"fmt"
	"path/filepath"

	"ecosched/internal/alloc"
	"ecosched/internal/durable"
	"ecosched/internal/fault"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/metrics"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// Every workload shares the owner-local load and the clock: each node keeps
// roughly 100 vacant fragments inside the 6000-tick horizon, and the clock
// advances 150 ticks per round.
const (
	horizon          = sim.Duration(6000)
	step             = sim.Duration(150)
	maxPostponements = 3
)

var ownerLoad = gridsim.LocalLoad{MeanGap: 30, DurMin: 20, DurMax: 40}

// workload is one named configuration of the service and of the load the
// benchmark offers it.
type workload struct {
	name     string
	nodes    int
	shards   int
	algo     alloc.Algorithm
	policy   metasched.Policy
	maxAlts  int
	maxBatch int
	// submits is the number of jobs submitted after every round, placed or
	// not: arrivals are open-loop in simulated time.
	submits int
	// maxPerf bounds the jobs' minimal node performance P, drawn from
	// [1, maxPerf].
	maxPerf float64
	// churn fails two live nodes, recovers the nodes failed two rounds
	// earlier and revokes one interval after every round; it also runs the
	// service behind the durable wrapper with a retry policy.
	churn     bool
	ckptEvery int
	// warmup rounds run before the first timed round and count as set-up;
	// rounds is the number of timed rounds of one episode.
	warmup, rounds int
	// episodes is the minimum number of worlds built and driven per run.
	episodes int
	// probe is the number of fault steps (fail 2, recover 2, revoke 1) run
	// after the timed rounds of a workload without churn.
	probe int
}

var workloads = []*workload{
	{
		name: "store-100k", nodes: 1000, shards: 1,
		algo: alloc.AMP{}, policy: metasched.MinimizeTime, maxAlts: 10, maxBatch: 8,
		submits: 4, maxPerf: 1.8, warmup: 10, rounds: 40, episodes: 3, probe: 16,
	},
	{
		name: "scan-sharded", nodes: 100, shards: 4,
		algo: alloc.AMP{}, policy: metasched.MinimizeTime, maxAlts: 50, maxBatch: 24,
		submits: 12, maxPerf: 1.8, warmup: 10, rounds: 50, episodes: 3, probe: 300,
	},
	{
		name: "durable-churn", nodes: 200, shards: 1,
		algo: alloc.ALP{}, policy: metasched.MinimizeCost, maxAlts: 10, maxBatch: 8,
		submits: 4, maxPerf: 1.4, churn: true, ckptEvery: 5, warmup: 10, rounds: 103, episodes: 3,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled returns a copy of w shrunk for the smoke test.
func (w *workload) scaled(nodes, warmup, rounds int) *workload {
	c := *w
	c.nodes, c.warmup, c.rounds, c.episodes = nodes, warmup, rounds, 1
	if c.probe > 2 {
		c.probe = 2
	}
	return &c
}

// newService builds the pristine service of one episode: the node pool, an
// empty grid and the scheduler. Owner-local load is seeded through one path
// only, the scheduler's LocalArrivals, which books the whole horizon in the
// first round before the store is first built. It is also the factory
// durable.Recover rebuilds from, so it depends on nothing but its arguments.
func newService(w *workload, seed uint64, reg *metrics.Registry) (*metasched.Service, error) {
	rng := sim.NewRNG(seed)
	pricing := resource.PaperPricing()
	nodes := make([]*resource.Node, w.nodes)
	for i := range nodes {
		perf := rng.FloatBetween(1, 3)
		nodes[i] = &resource.Node{
			Name:        fmt.Sprintf("n%d", i+1),
			Performance: perf,
			Price:       pricing.Sample(rng, perf),
		}
	}
	pool, err := resource.NewPool(nodes)
	if err != nil {
		return nil, err
	}
	grid, err := gridsim.New(pool)
	if err != nil {
		return nil, err
	}
	cfg := metasched.Config{
		Algorithm:        w.algo,
		Policy:           w.policy,
		Horizon:          horizon,
		Step:             step,
		MaxBatch:         w.maxBatch,
		MaxPostponements: maxPostponements,
		Parallelism:      1,
		Shards:           w.shards,
		Metrics:          reg,
		LocalArrivals:    &metasched.LocalArrivals{Load: ownerLoad, RNG: rng.Split()},
	}
	cfg.Search.MaxAlternativesPerJob = w.maxAlts
	if w.churn {
		cfg.Retry = &metasched.RetryPolicy{
			MaxAttempts:      3,
			BackoffBase:      step,
			BackoffFactor:    2,
			BackoffMax:       8 * step,
			JitterFrac:       0.2,
			JitterSeed:       seed,
			PriceRelaxFactor: 1.25,
			MaxRelaxations:   2,
			JobDeadline:      horizon,
		}
	}
	sched, err := metasched.New(cfg, grid)
	if err != nil {
		return nil, err
	}
	return metasched.NewService(sched, metasched.ServiceConfig{})
}

// driver is the surface the benchmark drives: *metasched.Service, or the
// durable wrapper around it.
type driver interface {
	Submit(*job.Job) error
	HandleNodeFailure(node string) ([]string, error)
	HandleNodeRecovery(node string) error
	HandleRevocation(node string, span sim.Interval) ([]string, error)
	Tick() (*metasched.IterationReport, error)
}

// world is one episode's service plus the benchmark-side generators of its
// inputs: jobs and fault events come from their own RNG, so the program only
// ever receives the generated values.
type world struct {
	w     *workload
	seed  uint64
	svc   *metasched.Service
	ds    *durable.Service // non-nil when the service runs durably
	drv   driver
	opts  durable.Options
	audit *fault.Audit

	inputs *sim.RNG
	jobs   int
	// down marks failed nodes; failedAt lists the nodes failed by each fault
	// step, recovered two steps later.
	down     map[string]bool
	failedAt [][]string
	// journaled counts the transitions driven through the durable wrapper.
	journaled int64
}

// newWorld builds an episode's world around a bare service.
func newWorld(w *workload, seed uint64, reg *metrics.Registry) (*world, error) {
	svc, err := newService(w, seed, reg)
	if err != nil {
		return nil, err
	}
	return &world{
		w:      w,
		seed:   seed,
		svc:    svc,
		drv:    svc,
		audit:  fault.NewAudit(svc.Scheduler()),
		inputs: sim.NewRNG(seed ^ 0x9e3779b97f4a7c15),
		down:   map[string]bool{},
	}, nil
}

// wrap puts the service behind the durable journal and checkpoint in dir;
// from then on every driven call goes through the wrapper.
func (wd *world) wrap(dir string, ckptEvery int, reg *metrics.Registry) error {
	wd.opts = durable.Options{
		JournalPath:     filepath.Join(dir, "service.journal"),
		CheckpointPath:  filepath.Join(dir, "service.ckpt"),
		CheckpointEvery: ckptEvery,
		Metrics:         reg,
	}
	ds, err := durable.New(wd.svc, wd.opts)
	if err != nil {
		return err
	}
	wd.ds, wd.drv = ds, ds
	return nil
}

// nextJob draws the next arrival; priorities follow arrival order.
func (wd *world) nextJob() *job.Job {
	wd.jobs++
	r := wd.inputs
	return &job.Job{
		Name:     fmt.Sprintf("j%d", wd.jobs),
		Priority: wd.jobs,
		Request: job.ResourceRequest{
			Nodes:          r.IntBetween(1, 3),
			Time:           sim.Duration(r.IntBetween(30, 90)),
			MinPerformance: r.FloatBetween(1, wd.w.maxPerf),
			MaxPrice:       resource.PaperPricing().BasePrice(1.5) * sim.Money(r.FloatBetween(1.0, 1.4)),
		},
	}
}

// faultEvent is one generated environment event.
type faultEvent struct {
	kind fault.Kind
	node string
	span sim.Interval
}

// nextFaults draws one fault step: fail two live nodes, recover the nodes
// failed two steps earlier, revoke one interval on a live node.
func (wd *world) nextFaults() []faultEvent {
	r := wd.inputs
	pool := wd.svc.Scheduler().Grid().Pool().Nodes()
	now := wd.svc.Scheduler().Grid().Now()
	live := func() string {
		for {
			if n := pool[r.IntN(len(pool))].Label(); !wd.down[n] {
				return n
			}
		}
	}
	var evs []faultEvent
	var failed []string
	for i := 0; i < 2; i++ {
		n := live()
		wd.down[n] = true
		failed = append(failed, n)
		evs = append(evs, faultEvent{kind: fault.Fail, node: n})
	}
	wd.failedAt = append(wd.failedAt, failed)
	if k := len(wd.failedAt) - 3; k >= 0 {
		for _, n := range wd.failedAt[k] {
			delete(wd.down, n)
			evs = append(evs, faultEvent{kind: fault.Recover, node: n})
		}
	}
	start := now.Add(sim.Duration(r.IntBetween(0, int(horizon)/2)))
	evs = append(evs, faultEvent{
		kind: fault.Revoke,
		node: live(),
		span: sim.Interval{Start: start, End: start.Add(sim.Duration(r.IntBetween(20, 200)))},
	})
	return evs
}

// apply routes one fault event through the driver and returns the jobs it
// requeued.
func (wd *world) apply(ev faultEvent) ([]string, error) {
	switch ev.kind {
	case fault.Fail:
		return wd.drv.HandleNodeFailure(ev.node)
	case fault.Recover:
		return nil, wd.drv.HandleNodeRecovery(ev.node)
	default:
		return wd.drv.HandleRevocation(ev.node, ev.span)
	}
}

// count records one successful call through the durable wrapper.
func (wd *world) count() {
	if wd.ds != nil {
		wd.journaled++
	}
}
