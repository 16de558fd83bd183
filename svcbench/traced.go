package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"ecosched/internal/alloc"
	"ecosched/internal/dp"
	"ecosched/internal/durable"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/metrics"
	"ecosched/internal/shard"
	"ecosched/internal/slot"
)

// span is one timed call, kept in memory; parent indexes the enclosing span
// (-1 for a round).
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer records spans around the calls the benchmark makes into each layer.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].end = time.Since(t.t0)
	return t.spans[i].end - t.spans[i].start
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the durations of its child spans.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.name] += s.end - s.start
		if s.parent >= 0 {
			p := t.spans[s.parent]
			self[p.name] -= s.end - s.start
		}
	}
	return self
}

// layers accumulates the traced run's per-round layer measurements.
type layers struct {
	tr tracer
	// per timed round; times in milliseconds
	roundMs                                []float64
	begin, evaluate, apply, finish         []float64
	publish, search, subtract, frontier    []float64
	slots, examined, alts, points          []float64
	critpath, merged, stale, queue, queued []float64
	placedWindows, foundWindows, imbalance float64
	// storeBuildMs holds each traced episode's first publication.
	storeBuildMs []float64
	// built is false until the current episode's first publication.
	built bool
}

// tracedEpisode drives the episode's world round by round through the
// service's phase API, issuing shadow calls into each layer before Evaluate.
// The world runs bare (no durable wrapper) with a metrics registry attached,
// and the steady-state contract is checked on the registry's counters.
func (r *run) tracedEpisode(seed uint64, lt *layers) (*episodeState, error) {
	w := r.w
	reg := metrics.New()
	wd, err := newWorld(w, seed, reg)
	if err != nil {
		return nil, err
	}
	lt.built = false
	alts := 0
	var setupRebuilds int64
	for i := 0; i < w.warmup+w.rounds; i++ {
		if i == w.warmup {
			// The store is built during set-up; from here on it must only
			// ever be maintained.
			setupRebuilds = storeRebuilds(reg.Snapshot())
		}
		n, err := r.tracedStep(wd, reg, lt, i >= w.warmup)
		if err != nil {
			return nil, err
		}
		alts += n
	}
	snap := reg.Snapshot()
	if n := storeRebuilds(snap); n != setupRebuilds {
		r.problem("steady state: store rebuilds went from %d after set-up to %d", setupRebuilds, n)
	}
	for _, c := range snap.Counters {
		switch {
		case strings.HasPrefix(c.Name, "alloc/") && strings.HasSuffix(c.Name, "/index/rebuilds_total") && c.Value != 0:
			r.problem("steady state: %s = %d, want 0", c.Name, c.Value)
		case strings.HasPrefix(c.Name, "gridsim/store/") && strings.HasSuffix(c.Name, "incoherent_drops_total") && c.Value != 0:
			r.problem("steady state: %s = %d, want 0", c.Name, c.Value)
		}
	}
	if err := wd.audit.Check(); err != nil {
		r.problem("traced audit: %v", err)
	}
	return &episodeState{hash: durable.StateHash(wd.svc), placed: wd.svc.Scheduler().PlacedCount(), alts: alts}, nil
}

// storeRebuilds sums the store's rebuild counters, per shard when sharded.
func storeRebuilds(s *metrics.Snapshot) int64 {
	var n int64
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, "gridsim/store/") && strings.HasSuffix(c.Name, "rebuilds_total") {
			n += c.Value
		}
	}
	return n
}

// tracedStep is step with the tick opened up into its phases and the shadow
// calls issued before Evaluate.
func (r *run) tracedStep(wd *world, reg *metrics.Registry, lt *layers, timed bool) (int, error) {
	tr := &lt.tr
	before := reg.Snapshot()
	root := tr.begin("round", -1)

	wd.svc.EnqueueTick()
	sp := tr.begin("metasched.begin", root)
	round, err := wd.svc.BeginRound()
	dBegin := tr.end(sp)
	if !r.op("begin round", err) {
		return 0, err
	}
	it := round.Iteration()

	shadowPlan, err := r.shadow(wd, it, tr, root, lt, timed)
	if !r.op("shadow calls", err) {
		return 0, err
	}

	sp = tr.begin("metasched.evaluate", root)
	err = round.Evaluate()
	dEval := tr.end(sp)
	if !r.op("evaluate", err) {
		return 0, err
	}
	var planned []*slot.Window
	if p := round.Plan(); p != nil {
		planned = p.Windows()
	}
	if !reflect.DeepEqual(planned, shadowPlan) {
		r.problem("round at t=%v: shadow plan %v differs from the service's plan %v",
			wd.svc.Scheduler().Grid().Now(), shadowPlan, planned)
	}

	sp = tr.begin("metasched.apply", root)
	err = round.Apply()
	dApply := tr.end(sp)
	if !r.op("apply", err) {
		return 0, err
	}
	stale := it.StaleWindows()

	sp = tr.begin("metasched.finish", root)
	rep, err := round.Finish()
	dFinish := tr.end(sp)
	dRound := tr.end(root)
	if !r.op("finish", err) {
		return 0, err
	}

	if timed {
		after := reg.Snapshot()
		lt.roundMs = append(lt.roundMs, ms(dRound))
		lt.begin = append(lt.begin, ms(dBegin))
		lt.evaluate = append(lt.evaluate, ms(dEval))
		lt.apply = append(lt.apply, ms(dApply))
		lt.finish = append(lt.finish, ms(dFinish))
		lt.critpath = append(lt.critpath, float64(after.Counter("shard/scan_critical_path_total")-before.Counter("shard/scan_critical_path_total")))
		lt.merged = append(lt.merged, float64(after.Counter("shard/merge/candidates_total")-before.Counter("shard/merge/candidates_total")))
		lt.imbalance = float64(after.Gauge("shard/imbalance_x1000"))
		lt.stale = append(lt.stale, float64(stale))
		lt.queue = append(lt.queue, float64(wd.svc.QueueDepth()))
		lt.queued = append(lt.queued, float64(wd.svc.Scheduler().QueueLength()))
		lt.placedWindows += float64(len(rep.Placed))
	}

	if wd.w.churn {
		for _, ev := range wd.nextFaults() {
			r.fault(wd, ev, false)
		}
	}
	for i := 0; i < wd.w.submits; i++ {
		j := wd.nextJob()
		if !r.op("submit "+j.Name, wd.svc.Submit(j)) {
			return 0, fmt.Errorf("submit %s failed", j.Name)
		}
	}
	return rep.Alternatives, nil
}

// shadow re-issues the round's planning work through each layer's public
// functions on the round's frozen batch: publication, the alternative search
// on that publication, a replay of the found windows' subtraction on a fresh
// clone, and the frontier DP. It returns the windows the DP chose. The first
// publication of a session is the store build; later ones absorb the store's
// horizon extension, so the service's own Evaluate then only pays for the
// clone.
func (r *run) shadow(wd *world, it *metasched.Iteration, tr *tracer, root int, lt *layers, timed bool) ([]*slot.Window, error) {
	sched := wd.svc.Scheduler()
	var jobs []*job.Job
	var b strings.Builder
	it.CanonicalState(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "batched "); ok {
			j := sched.QueuedJob(name)
			if j == nil {
				return nil, fmt.Errorf("batched job %s is not queued", name)
			}
			jobs = append(jobs, j)
		}
	}
	if len(jobs) == 0 {
		return nil, nil
	}
	batch, err := job.NewBatch(jobs)
	if err != nil {
		return nil, err
	}
	grid := sched.Grid()
	h := grid.Now().Add(horizon)
	sharded := wd.w.shards > 1
	part := shard.New(wd.w.shards)
	publish := func() (*slot.List, *slot.Index, []*slot.Index, error) {
		if sharded {
			views, err := grid.ShardViews(h)
			return nil, nil, views, err
		}
		l, ix, err := grid.VacantView(h)
		return l, ix, nil, err
	}

	sp := tr.begin("gridsim.publish", root)
	list, ix, views, err := publish()
	dPublish := tr.end(sp)
	if err != nil {
		return nil, err
	}
	if !lt.built {
		lt.storeBuildMs = append(lt.storeBuildMs, ms(dPublish))
		lt.built = true
	}
	slots := 0
	if sharded {
		for _, v := range views {
			slots += v.Len()
		}
	} else {
		slots = list.Len()
	}

	// The search and the replay each start on a freshly collected heap, so
	// neither pays for a collection the other's allocations provoked.
	runtime.GC()
	opts := alloc.SearchOptions{MaxAlternativesPerJob: wd.w.maxAlts, Prebuilt: ix}
	sp = tr.begin("alloc.search", root)
	var res *alloc.SearchResult
	if sharded {
		opts.Prebuilt = nil
		res, err = shard.Search(wd.w.algo, part, views, batch, opts, 1, nil)
	} else {
		res, err = alloc.FindAlternatives(wd.w.algo, list, batch, opts)
	}
	dSearch := tr.end(sp)
	if err != nil {
		return nil, err
	}

	// Replay the subtractions, pass by pass in batch order as the search
	// found them, on a fresh publication.
	_, fresh, freshViews, err := publish()
	if err != nil {
		return nil, err
	}
	var found []*slot.Window
	for pass := 0; ; pass++ {
		more := false
		for _, j := range batch.Jobs() {
			if ws := res.Alternatives[j.Name]; pass < len(ws) {
				found = append(found, ws[pass])
				more = true
			}
		}
		if !more {
			break
		}
	}
	runtime.GC()
	sp = tr.begin("slot.subtract", root)
	for _, w := range found {
		if sharded {
			for _, p := range w.Placements {
				if err = freshViews[part.Of(p.Source.Node)].SubtractInterval(p.Source, p.Used); err != nil {
					break
				}
			}
		} else {
			err = fresh.SubtractWindow(w)
		}
		if err != nil {
			break
		}
	}
	dSubtract := tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("subtract replay: %w", err)
	}

	var covered []*job.Job
	for _, j := range batch.Jobs() {
		if len(res.Alternatives[j.Name]) > 0 {
			covered = append(covered, j)
		}
	}
	var chosen []*slot.Window
	points := 0
	var dFrontier time.Duration
	if len(covered) > 0 {
		sub, err := job.NewBatch(covered)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("dp.frontier", root)
		plan, size, err := solve(wd.w.policy, sub, dp.Alternatives(res.Alternatives))
		dFrontier = tr.end(sp)
		var inf *dp.ErrInfeasible
		if err != nil && !errors.As(err, &inf) {
			return nil, err
		}
		points = size
		if plan != nil {
			for _, ch := range plan.Choices {
				chosen = append(chosen, ch.Window)
			}
		}
	}

	if timed {
		lt.publish = append(lt.publish, ms(dPublish))
		lt.search = append(lt.search, ms(dSearch))
		lt.subtract = append(lt.subtract, ms(dSubtract))
		lt.frontier = append(lt.frontier, ms(dFrontier))
		lt.slots = append(lt.slots, float64(slots))
		lt.examined = append(lt.examined, float64(res.Stats.SlotsExamined))
		lt.alts = append(lt.alts, float64(res.TotalAlternatives()))
		lt.points = append(lt.points, float64(points))
		lt.foundWindows += float64(res.TotalAlternatives())
	}
	return chosen, nil
}

// solve runs the service's second phase on the covered sub-batch: build the
// frontier, derive T* and B*, solve the policy. It also returns the
// frontier's size.
func solve(policy metasched.Policy, batch *job.Batch, alts dp.Alternatives) (*dp.Plan, int, error) {
	fr, err := dp.NewFrontier(batch, alts)
	if err != nil {
		return nil, 0, err
	}
	limits, err := fr.Limits()
	if err != nil {
		return nil, fr.Size(), err
	}
	var plan *dp.Plan
	if policy == metasched.MinimizeCost {
		plan, err = fr.MinimizeCost(limits.Quota)
	} else {
		plan, err = fr.MinimizeTime(limits.Budget)
	}
	return plan, fr.Size(), err
}

// spanTable renders the self time of every span name, sorted by name.
func (t *tracer) spanTable() string {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  span %-20s self %10.1f ms\n", n, ms(self[n]))
	}
	return b.String()
}
