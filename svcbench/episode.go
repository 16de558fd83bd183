package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ecosched/internal/codec"
	"ecosched/internal/durable"
	"ecosched/internal/fault"
	"ecosched/internal/metasched"
	"ecosched/internal/metrics"
	"ecosched/internal/stats"
)

// An episode ends with at least minRecoveries durable.Recover calls, and more
// until recoverBudget has been spent or maxRecoveries reached: a cheap
// recovery gets more samples.
const (
	minRecoveries = 3
	maxRecoveries = 20
	recoverBudget = 500 * time.Millisecond
)

// run accumulates the measurements and the correctness gate of one benchmark
// invocation across its episodes.
type run struct {
	w   *workload
	dir string
	log io.Writer
	// side turns on the durable layer's side measurements of the traced
	// invocation: explicit timed checkpoints, a side journal that re-appends
	// every submit and fault record, and a timed recovery factory.
	side bool

	attempted, failed int
	problems          []string
	fingerprints      []string

	setupS     []float64
	roundMs    []float64
	baselineMs []float64
	tickS      float64
	placed     int
	alloc      uint64
	timed      int
	heapMB     []float64
	submitted  int
	kept       int
	submitUs   []float64
	faultUs    []float64
	recoverMs  []float64
	diskMB     []float64
	gcCycles   uint64
	gcCPU, cpu float64

	appendUs       []float64
	checkpointMs   []float64
	checkpointKB   []float64
	journalKBRound []float64
	factoryMs      []float64
	replayed       []float64
	sideJournal    *durable.Journal
}

// op counts one driven call and records its error as a failed operation.
func (r *run) op(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.problem("%s: %v", what, err)
		return false
	}
	return true
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// mode selects what an episode measures.
type mode int

const (
	// modeWarmup rounds are set-up: driven, checked, not measured.
	modeWarmup mode = iota
	// modeTimed rounds feed the end-to-end metrics.
	modeTimed
	// modeBaseline runs the service bare and records only round times and
	// runtime counters: the traced invocation's untraced baseline for a
	// workload whose timed episode journals.
	modeBaseline
)

// episodeState is what an episode reports for the traced-versus-untraced
// comparison.
type episodeState struct {
	hash         uint64
	placed, alts int
}

// episode builds one world, drives its warm-up and timed rounds, checks the
// final state and measures recovery. In modeBaseline the service runs
// without the durable wrapper and the episode ends after its rounds.
func (r *run) episode(seed uint64, idx int, m mode) (*episodeState, error) {
	bare := m == modeBaseline
	w := r.w
	dir := filepath.Join(r.dir, fmt.Sprintf("episode%d", idx))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// In a traced invocation the durable wrapper reports to a registry, and
	// checkpoints are taken explicitly, and timed, in step.
	var reg *metrics.Registry
	ckptEvery := w.ckptEvery
	if r.side {
		reg, ckptEvery = metrics.New(), 0
	}
	start := time.Now()
	wd, err := newWorld(w, seed, nil)
	if err != nil {
		return nil, err
	}
	if w.churn && !bare {
		if err := wd.wrap(dir, ckptEvery, reg); err != nil {
			return nil, err
		}
	}
	if r.side && !bare {
		j, _, _, err := durable.OpenJournal(filepath.Join(dir, "side.journal"), false, nil)
		if err != nil {
			return nil, err
		}
		r.sideJournal = j
		defer func() { j.Close(); r.sideJournal = nil }()
	}
	alts := 0
	for i := 0; i < w.warmup; i++ {
		n, err := r.step(wd, i, modeWarmup)
		if err != nil {
			return nil, err
		}
		alts += n
	}
	if !bare {
		r.setupS = append(r.setupS, time.Since(start).Seconds())
	}

	faults0, recovers0 := len(r.faultUs), len(r.recoverMs)
	rt0 := readRuntime()
	for i := 0; i < w.rounds; i++ {
		n, err := r.step(wd, w.warmup+i, m)
		if err != nil {
			return nil, err
		}
		alts += n
	}
	rt1 := readRuntime()
	sched := wd.svc.Scheduler()
	st := &episodeState{hash: durable.StateHash(wd.svc), placed: sched.PlacedCount(), alts: alts}
	if bare {
		r.gcCycles += rt1.gcCycles - rt0.gcCycles
		r.gcCPU += rt1.gcCPU - rt0.gcCPU
		r.cpu += rt1.usedCPU - rt0.usedCPU
		return st, nil
	}
	r.fingerprints = append(r.fingerprints, fmt.Sprintf("episode %d seed %d: state %016x placed %d alternatives %d (submitted %d queued %d dropped %d)",
		idx, seed, st.hash, st.placed, st.alts, sched.SubmittedCount(), sched.QueueLength(), len(sched.DroppedJobs())))
	r.submitted += sched.SubmittedCount()
	r.kept += st.placed
	// Two collections: the first moves sync.Pool caches (encoding/json's
	// buffers can hold a whole checkpoint) to their victim lists and the
	// second frees them, so the figure is the service's own live state
	// whether or not a collection ran since the last checkpoint.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.heapMB = append(r.heapMB, float64(mem.HeapAlloc)/1e6)
	if !w.churn {
		r.gcCycles += rt1.gcCycles - rt0.gcCycles
		r.gcCPU += rt1.gcCPU - rt0.gcCPU
		r.cpu += rt1.usedCPU - rt0.usedCPU
	}

	if !w.churn {
		// A workload without churn runs bare; wrap its final state durably,
		// checkpoint it, and probe the fault handlers on it.
		if err := wd.wrap(dir, 0, reg); err != nil {
			return nil, err
		}
		if _, err := r.timedCheckpoint(wd); !r.op("checkpoint", err) {
			return nil, err
		}
		// Start the probe on a collected heap: it allocates little, so no
		// collection the timed rounds provoked runs under its operations.
		runtime.GC()
		for i := 0; i < w.probe; i++ {
			for _, ev := range wd.nextFaults() {
				r.fault(wd, ev, true)
			}
		}
	}
	if reg != nil {
		if n := reg.Snapshot().Counter("metasched/durable/records_appended_total"); n != wd.journaled {
			r.problem("journal holds %d records for %d journaled transitions", n, wd.journaled)
		}
	}
	r.recover(wd, w.warmup+w.rounds)
	ep, faults := r.roundMs[len(r.roundMs)-w.rounds:], r.faultUs[faults0:]
	fmt.Fprintf(r.log, "episode %s %d: set-up %.3f s, round p50 %.2f ms, p90 %.2f ms; %d fault calls p50 %.1f us, p90 %.1f us; recover p50 %.2f ms\n",
		w.name, idx, r.setupS[len(r.setupS)-1], stats.Quantile(ep, 0.5), stats.Quantile(ep, 0.9),
		len(faults), stats.Quantile(faults, 0.5), stats.Quantile(faults, 0.9), median(r.recoverMs[recovers0:]))
	return st, nil
}

// step drives one round: the tick, then (on churn) one fault step, then the
// round's submissions. It returns the alternatives the round found.
func (r *run) step(wd *world, round int, m mode) (int, error) {
	timed := m == modeTimed
	a0 := allocBytes()
	t0 := time.Now()
	rep, err := wd.drv.Tick()
	d := time.Since(t0)
	if err == nil && r.side && wd.ds != nil && wd.w.ckptEvery > 0 && (round+1)%wd.w.ckptEvery == 0 {
		var cd time.Duration
		cd, err = r.timedCheckpoint(wd)
		d += cd
	}
	a1 := allocBytes()
	if !r.op("tick", err) {
		return 0, err
	}
	wd.count()
	if m == modeBaseline {
		r.baselineMs = append(r.baselineMs, ms(d))
	}
	if timed {
		r.roundMs = append(r.roundMs, ms(d))
		r.tickS += d.Seconds()
		r.placed += len(rep.Placed)
		r.alloc += a1 - a0
		r.timed++
	}
	if wd.w.churn {
		for _, ev := range wd.nextFaults() {
			if a := r.fault(wd, ev, timed); timed {
				r.alloc += a
			}
		}
	}
	for i := 0; i < wd.w.submits; i++ {
		j := wd.nextJob()
		a := allocBytes()
		t := time.Now()
		err := wd.drv.Submit(j)
		d := time.Since(t)
		if timed {
			r.alloc += allocBytes() - a
			r.submitUs = append(r.submitUs, us(d))
		}
		if !r.op("submit "+j.Name, err) {
			return 0, err
		}
		wd.count()
		r.sideAppend(&codec.Record{Kind: codec.RecordSubmit, Now: wd.svc.Scheduler().Grid().Now(), Job: j})
	}
	return rep.Alternatives, nil
}

// fault applies one fault event and returns the bytes it allocated; timed
// records its latency.
func (r *run) fault(wd *world, ev faultEvent, timed bool) uint64 {
	a := allocBytes()
	t := time.Now()
	requeued, err := wd.apply(ev)
	d := time.Since(t)
	allocated := allocBytes() - a
	if timed {
		r.faultUs = append(r.faultUs, us(d))
	}
	if r.op(ev.kind.String()+" "+ev.node, err) {
		wd.count()
		rec := &codec.Record{Now: wd.svc.Scheduler().Grid().Now(), Node: ev.node, Requeued: requeued}
		switch ev.kind {
		case fault.Fail:
			rec.Kind = codec.RecordFail
		case fault.Recover:
			rec.Kind = codec.RecordRecover
		default:
			rec.Kind, rec.Span = codec.RecordRevoke, ev.span
		}
		r.sideAppend(rec)
	}
	return allocated
}

// sideAppend times one append of rec to the side journal.
func (r *run) sideAppend(rec *codec.Record) {
	if r.sideJournal == nil {
		return
	}
	t := time.Now()
	err := r.sideJournal.Append(rec)
	d := time.Since(t)
	if r.op("side journal append", err) {
		r.appendUs = append(r.appendUs, us(d))
	}
}

// timedCheckpoint writes an explicit checkpoint and times it.
func (r *run) timedCheckpoint(wd *world) (time.Duration, error) {
	t := time.Now()
	err := wd.ds.Checkpoint()
	d := time.Since(t)
	if err == nil {
		r.checkpointMs = append(r.checkpointMs, ms(d))
		r.checkpointKB = append(r.checkpointKB, float64(fileSize(wd.opts.CheckpointPath))/1e3)
	}
	return d, err
}

// recover closes the durable service, checks the final state and recovers it
// several times from its journal and checkpoint, timing each recovery and
// checking that it lands on the live state.
func (r *run) recover(wd *world, rounds int) {
	if err := wd.audit.Check(); err != nil {
		r.problem("audit: %v", err)
	}
	if wd.w.churn {
		// Only a service journaled from its first transition has a ledger
		// covering every placed job.
		if err := wd.audit.CheckRecoveryCoherence(wd.ds.AppliedLive()); err != nil {
			r.problem("live recovery coherence: %v", err)
		}
	}
	live := durable.StateHash(wd.svc)
	if err := wd.ds.Close(); err != nil {
		r.problem("close journal: %v", err)
	}
	journal := fileSize(wd.opts.JournalPath)
	r.diskMB = append(r.diskMB, float64(journal+fileSize(wd.opts.CheckpointPath))/1e6)
	if wd.w.churn {
		r.journalKBRound = append(r.journalKBRound, float64(journal)/1e3/float64(rounds))
	} else {
		r.journalKBRound = append(r.journalKBRound, 0)
	}
	var spent time.Duration
	for k := 0; k < minRecoveries || (k < maxRecoveries && spent < recoverBudget); k++ {
		var factory time.Duration
		runtime.GC()
		t := time.Now()
		ds, rep, err := durable.Recover(wd.opts, func() (*metasched.Service, error) {
			t := time.Now()
			defer func() { factory = time.Since(t) }()
			return newService(wd.w, wd.seed, nil)
		})
		d := time.Since(t)
		spent += d
		if !r.op("recover", err) {
			return
		}
		r.recoverMs = append(r.recoverMs, ms(d))
		r.factoryMs = append(r.factoryMs, ms(factory))
		r.replayed = append(r.replayed, float64(rep.RecordsReplayed))
		if got := durable.StateHash(ds.Unwrap()); got != live {
			r.problem("recovery %d: state %016x, live state %016x", k, got, live)
		}
		if k == 0 {
			a := fault.NewAudit(ds.Scheduler())
			if err := a.Check(); err != nil {
				r.problem("audit after recovery: %v", err)
			}
			if err := a.CheckRecoveryCoherence(ds.AppliedLive()); err != nil {
				r.problem("recovery coherence: %v", err)
			}
		}
		if err := ds.Close(); err != nil {
			r.problem("close recovered journal: %v", err)
		}
	}
}
