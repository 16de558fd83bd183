package mc

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"ecosched/internal/codec"
	"ecosched/internal/fault"
	"ecosched/internal/gridsim"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
)

// Instance is one live replay of a trace: a fresh grid, scheduler, and
// auditor driven action by action. The explorer builds one per candidate
// successor; the differential tests reuse it as a transcript generator.
type Instance struct {
	u     *Universe
	grid  *gridsim.Grid
	sched *metasched.Scheduler
	audit *fault.Audit
	// it is the open plan/apply iteration, nil between iterations. Batch
	// universes only.
	it *metasched.Iteration
	// svc is the continuous-service wrapper, nil in batch universes. When
	// set, submits and fault events route through the service so each
	// enqueues its evaluation, and the round below replaces it.
	svc *metasched.Service
	// round is the open evaluate/apply round, nil between rounds. Service
	// universes only.
	round *metasched.Round
	// tickQueued marks a pending explicit tick evaluation (ActEnqueue);
	// cleared when ActEvaluate consumes the queue. Mirrored by the
	// explorer's frontier metadata.
	tickQueued bool
	// submitted marks jobs already handed to the scheduler.
	submitted []bool
	// events are the fault events applied so far, stamped with the clock
	// at application time — exactly the plan a fault.Session would need
	// to reproduce this trace.
	events []fault.Event
	// w receives the session-format transcript (io.Discard by default).
	w   io.Writer
	mut Mutation
	// zombies holds, per node, the reservations its last failure
	// cancelled; MutResurrect force-books them again on recovery.
	zombies map[int][]gridsim.Task
}

// NewInstance builds a fresh instance of the universe. The transcript
// writer may be nil; mut seeds a deliberate bug (MutNone for the real
// protocol).
func NewInstance(u *Universe, mut Mutation, w io.Writer) (*Instance, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if w == nil {
		w = io.Discard
	}
	pool, err := u.pool()
	if err != nil {
		return nil, err
	}
	grid, err := gridsim.New(pool)
	if err != nil {
		return nil, err
	}
	sched, err := metasched.New(u.config(), grid)
	if err != nil {
		return nil, err
	}
	var svc *metasched.Service
	if u.Service {
		svc, err = metasched.NewService(sched, metasched.ServiceConfig{})
		if err != nil {
			return nil, err
		}
	}
	return &Instance{
		svc:       svc,
		u:         u,
		grid:      grid,
		sched:     sched,
		audit:     fault.NewAudit(sched),
		submitted: make([]bool, len(u.Jobs)),
		w:         w,
		mut:       mut,
		zombies:   map[int][]gridsim.Task{},
	}, nil
}

// Scheduler exposes the driven scheduler (for drains and summaries).
func (in *Instance) Scheduler() *metasched.Scheduler { return in.sched }

// Events returns the fault events applied so far with their recorded times.
func (in *Instance) Events() []fault.Event { return in.events }

// Feasible reports whether the action is structurally applicable in the
// current state: no duplicate submits, plan/commit strictly alternating,
// fail/revoke only on live nodes, recover only on failed ones. The
// explorer enumerates only feasible actions; the minimizer skips infeasible
// ones left behind by deletions.
func (in *Instance) Feasible(a Action) bool {
	switch a.Kind {
	case ActSubmit:
		return !in.submitted[a.Arg]
	case ActPlan:
		return in.svc == nil && in.it == nil
	case ActCommit:
		return in.svc == nil && in.it != nil
	case ActEnqueue:
		// A second explicit tick eval would coalesce into the pending one —
		// a self-loop the explorer has no reason to expand.
		return in.svc != nil && !in.tickQueued
	case ActEvaluate:
		return in.svc != nil && in.round == nil
	case ActApply:
		return in.svc != nil && in.round != nil
	case ActCrash:
		return in.svc != nil && in.round == nil
	case ActTick:
		return true
	case ActFail, ActRevoke:
		return !in.grid.NodeFailed(resource.NodeID(a.Arg))
	case ActRecover:
		return in.grid.NodeFailed(resource.NodeID(a.Arg))
	default:
		return false
	}
}

// Apply executes one action against the live session and then checks the
// full audit safety set. Any returned error — an invariant violation or an
// unexpected scheduler failure — marks the trace as a counterexample.
func (in *Instance) Apply(a Action) error {
	switch a.Kind {
	case ActSubmit:
		j := in.u.buildJob(a.Arg)
		var err error
		if in.svc != nil {
			err = in.svc.Submit(j)
		} else {
			err = in.sched.Submit(j)
		}
		if err != nil {
			return err
		}
		in.submitted[a.Arg] = true
	case ActEnqueue:
		in.svc.EnqueueTick()
		in.tickQueued = true
	case ActEvaluate:
		r, err := in.svc.BeginRound()
		if err != nil {
			return err
		}
		if err := r.Evaluate(); err != nil {
			return err
		}
		in.round = r
		// BeginRound consumed every due evaluation; tick evals are due
		// immediately, so a pending explicit tick never survives a round.
		in.tickQueued = false
	case ActApply:
		if in.mut == MutBlindApply {
			in.blindApply()
		}
		if err := in.round.Apply(); err != nil {
			return err
		}
		rep, err := in.round.Finish()
		if err != nil {
			return err
		}
		in.round = nil
		fault.WriteIterationReport(in.w, rep)
		for _, p := range rep.Placed {
			in.audit.JobRescheduled(p.Job.Name)
		}
	case ActPlan:
		it, err := in.sched.BeginIteration()
		if err != nil {
			return err
		}
		if err := it.Plan(); err != nil {
			return err
		}
		in.it = it
	case ActCommit:
		if err := in.it.Apply(); err != nil {
			return err
		}
		rep, err := in.it.Finish()
		if err != nil {
			return err
		}
		in.it = nil
		fault.WriteIterationReport(in.w, rep)
		for _, p := range rep.Placed {
			in.audit.JobRescheduled(p.Job.Name)
		}
	case ActTick:
		if err := in.grid.Advance(in.grid.Now().Add(in.u.Step)); err != nil {
			return err
		}
	case ActCrash:
		if err := in.crash(); err != nil {
			return err
		}
	case ActFail, ActRecover, ActRevoke:
		if err := in.applyEvent(a); err != nil {
			return err
		}
	default:
		return fmt.Errorf("mc: unknown action kind %d", int(a.Kind))
	}
	return in.check()
}

// blindApply seeds the MutBlindApply bug: if the open round's pending plan
// is stale, its placements are force-booked exactly as a non-re-validating
// applier would write them — no overlap, clock, or failed-node checks, no
// owner credit, no store maintenance. The real apply still runs afterwards,
// so a window the grid would have accepted books twice.
func (in *Instance) blindApply() {
	p := in.round.Plan()
	if !p.Stale(in.grid.Epoch()) {
		return
	}
	for _, ch := range p.Choices {
		for _, pl := range ch.Window.Placements {
			in.grid.ForceBook(gridsim.Task{
				Name: ch.Job.Name,
				Node: pl.Source.Node.ID,
				Span: pl.Used,
				Cost: pl.Cost(),
			})
		}
	}
}

// applyEvent injects one environment event through the scheduler's fault
// hooks with the auditor's before/after protocol, mirroring fault.Session
// line for line so session-compatible traces replay byte-identically. In
// service mode the hooks route through the service so each event also
// enqueues its evaluation.
func (in *Instance) applyEvent(a Action) error {
	node := in.u.Nodes[a.Arg]
	id := resource.NodeID(a.Arg)
	ev := fault.Event{At: in.grid.Now(), Node: node.Name}
	in.audit.BeginEvent()
	var requeued []string
	var err error
	switch a.Kind {
	case ActFail:
		ev.Kind = fault.Fail
		if in.mut == MutResurrect {
			in.zombies[a.Arg] = in.liveVOTasks(id)
		}
		var refundBase float64
		if in.mut == MutDoubleRefund {
			byDomain, _ := in.grid.OwnerIncome()
			refundBase = float64(byDomain[node.Domain])
		}
		if in.svc != nil {
			requeued, err = in.svc.HandleNodeFailure(node.Name)
		} else {
			requeued, err = in.sched.HandleNodeFailure(node.Name)
		}
		if err == nil && in.mut == MutDoubleRefund {
			byDomain, _ := in.grid.OwnerIncome()
			if refund := refundBase - float64(byDomain[node.Domain]); refund > 0 {
				// The grid already refunded the cancellations once;
				// subtract the same amount again.
				in.grid.AdjustIncome(node.Domain, -sim.Money(refund))
			}
		}
	case ActRecover:
		ev.Kind = fault.Recover
		if in.svc != nil {
			err = in.svc.HandleNodeRecovery(node.Name)
		} else {
			err = in.sched.HandleNodeRecovery(node.Name)
		}
		if err == nil && in.mut == MutResurrect {
			for _, t := range in.zombies[a.Arg] {
				in.grid.ForceBook(t)
			}
			in.zombies[a.Arg] = nil
		}
	case ActRevoke:
		ev.Kind = fault.Revoke
		ev.Span = in.u.RevokeSpan
		if in.svc != nil {
			requeued, err = in.svc.HandleRevocation(node.Name, in.u.RevokeSpan)
		} else {
			requeued, err = in.sched.HandleRevocation(node.Name, in.u.RevokeSpan)
		}
	}
	if err != nil {
		return fmt.Errorf("mc: applying %v: %w", ev, err)
	}
	cancelled := in.audit.EndEvent(ev)
	in.events = append(in.events, ev)
	fmt.Fprintf(in.w, "fault %v cancelled=%d requeued=%v drops=%d\n",
		ev, len(cancelled), requeued, len(in.sched.DroppedJobs()))
	return nil
}

// crash simulates a process crash at a committed boundary followed by
// recovery from a durability checkpoint: the complete canonical state —
// grid, scheduler, service — is exported, encoded through the codec's
// checkpoint wire format, decoded back, and restored in place into the same
// objects (the auditor and the transcript writer keep their pointers). The
// protocol property is that durability is invisible: the post-recovery hash
// must equal the pre-crash hash, and a divergence is a safety violation.
// MutLossyCrash seeds the classic bug — recovery that silently drops the
// tail of the evaluation queue — which this check must catch.
func (in *Instance) crash() error {
	before := in.Hash()
	svcState, err := in.svc.ExportState()
	if err != nil {
		return err
	}
	cp := &codec.Checkpoint{
		Grid:    in.grid.ExportState(),
		Sched:   in.sched.ExportState(),
		Service: svcState,
	}
	data, err := codec.EncodeCheckpoint(cp)
	if err != nil {
		return err
	}
	restored, err := codec.DecodeCheckpoint(data)
	if err != nil {
		return err
	}
	if in.mut == MutLossyCrash && len(restored.Service.Pending) > 0 {
		restored.Service.Pending = restored.Service.Pending[:len(restored.Service.Pending)-1]
	}
	if err := in.grid.RestoreState(restored.Grid); err != nil {
		return err
	}
	if err := in.sched.RestoreState(restored.Sched); err != nil {
		return err
	}
	if err := in.svc.RestoreState(restored.Service); err != nil {
		return err
	}
	if after := in.Hash(); after != before {
		return fmt.Errorf("mc: crash recovery changed committed state: hash %016x -> %016x", before, after)
	}
	return nil
}

// liveVOTasks snapshots the node's unfinished VO reservations — the set a
// failure right now would cancel.
func (in *Instance) liveVOTasks(id resource.NodeID) []gridsim.Task {
	var out []gridsim.Task
	for _, t := range in.grid.Tasks(id) {
		if !t.Local && t.Span.End > in.grid.Now() {
			out = append(out, t)
		}
	}
	return out
}

// check runs the audit and converts any violation — including ones the
// event hooks recorded — into an error. Instances are single-trace, so a
// non-empty violation log always means this trace is unsafe.
func (in *Instance) check() error {
	in.audit.Check()
	if v := in.audit.Violations(); len(v) > 0 {
		return fmt.Errorf("mc: safety violated: %s", strings.Join(v, "; "))
	}
	return nil
}

// Hash returns the FNV-64a digest of the complete canonical state: grid,
// scheduler, open iteration, and the auditor's cancelled-reservation watch
// list. Two states with equal hashes are treated as the same node of the
// transition system.
func (in *Instance) Hash() uint64 {
	var b strings.Builder
	in.grid.CanonicalState(&b)
	in.sched.CanonicalState(&b)
	if in.it != nil {
		in.it.CanonicalState(&b)
	}
	if in.svc != nil {
		in.svc.CanonicalState(&b)
	}
	if in.round != nil {
		in.round.Iteration().CanonicalState(&b)
	}
	for _, k := range in.audit.CancelledKeys() {
		b.WriteString("watch ")
		b.WriteString(k)
		b.WriteByte('\n')
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return h.Sum64()
}

// Drain is the liveness check: close any open iteration, recover every
// failed node, then run fault-free iterations until the queue empties. If
// the queue is still non-empty after maxIter iterations some submitted job
// neither placed nor dropped — a liveness violation.
func (in *Instance) Drain(maxIter int) error {
	if in.it != nil {
		if err := in.it.Apply(); err != nil {
			return err
		}
		if _, err := in.it.Finish(); err != nil {
			return err
		}
		in.it = nil
		if err := in.check(); err != nil {
			return err
		}
	}
	if in.round != nil {
		if err := in.round.Apply(); err != nil {
			return err
		}
		if _, err := in.round.Finish(); err != nil {
			return err
		}
		in.round = nil
		if err := in.check(); err != nil {
			return err
		}
	}
	for i := range in.u.Nodes {
		if in.grid.NodeFailed(resource.NodeID(i)) {
			if err := in.applyEvent(Action{Kind: ActRecover, Arg: i}); err != nil {
				return err
			}
			if err := in.check(); err != nil {
				return err
			}
		}
	}
	for i := 0; i < maxIter && in.sched.QueueLength() > 0; i++ {
		var rep *metasched.IterationReport
		var err error
		if in.svc != nil {
			// Service drain: full tick rounds, so backoff-gated requeue
			// evaluations become due as the clock advances.
			rep, err = in.svc.Tick()
			in.tickQueued = false
		} else {
			rep, err = in.iterate()
		}
		if err != nil {
			return err
		}
		for _, p := range rep.Placed {
			in.audit.JobRescheduled(p.Job.Name)
		}
		if err := in.check(); err != nil {
			return err
		}
	}
	if n := in.sched.QueueLength(); n > 0 {
		return fmt.Errorf("mc: liveness violated: %d job(s) still queued after fault-free drain of %d iterations",
			n, maxIter)
	}
	return nil
}

// iterate runs one whole batch-universe iteration through the step API —
// plan immediately followed by commit, nothing interleaved.
func (in *Instance) iterate() (*metasched.IterationReport, error) {
	it, err := in.sched.BeginIteration()
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

// Replay builds a fresh instance and applies the whole trace, failing on
// the first violating action. The returned instance is the reached state.
func Replay(u *Universe, mut Mutation, trace []Action, w io.Writer) (*Instance, error) {
	in, err := NewInstance(u, mut, w)
	if err != nil {
		return nil, err
	}
	for i, a := range trace {
		if err := in.Apply(a); err != nil {
			return in, fmt.Errorf("mc: action %d (%s): %w", i, a.Render(u), err)
		}
	}
	return in, nil
}

// replayLenient applies the trace skipping structurally infeasible actions
// — the minimizer's deletions can orphan a commit or recover, and skipping
// keeps the shorter candidate meaningful. It returns the first violation
// error, or nil if the trace is clean.
func replayLenient(u *Universe, mut Mutation, trace []Action) (*Instance, error) {
	in, err := NewInstance(u, mut, nil)
	if err != nil {
		return nil, err
	}
	for _, a := range trace {
		if !in.Feasible(a) {
			continue
		}
		if err := in.Apply(a); err != nil {
			return in, err
		}
	}
	return in, nil
}
