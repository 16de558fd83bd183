package fault

import (
	"fmt"
	"io"
	"sort"

	"ecosched/internal/metasched"
	"ecosched/internal/sim"
)

// ServiceDriver is the continuous-service surface a session drives in service
// mode: the event handlers, the round runner, and the evaluation-queue depth
// the drain loop watches. *metasched.Service satisfies it directly, and so
// does the durable wrapper (internal/durable.Service), which journals every
// one of these calls — the crash-storm soak runs a whole chaos session
// through it unmodified.
type ServiceDriver interface {
	Scheduler() *metasched.Scheduler
	HandleNodeFailure(nodeLabel string) ([]string, error)
	HandleNodeRecovery(nodeLabel string) error
	HandleRevocation(nodeLabel string, span sim.Interval) ([]string, error)
	Tick() (*metasched.IterationReport, error)
	QueueDepth() int
}

// Session drives a metascheduler through a fault plan: before every
// scheduling iteration it applies the plan events whose time has come (in
// plan order), re-queuing or dropping the affected jobs through the
// scheduler's retry policy, and it runs the Audit invariant checker after
// every injected event and every iteration, failing fast on the first
// violation.
//
// The whole run is written to the transcript writer in a canonical textual
// form. Because every input is deterministic — the plan is a sorted event
// list, the scheduler draws only from seeded RNGs — two sessions with the
// same seed and plan must produce byte-identical transcripts whatever the
// engine (frontier or dense DP, indexed or linear scan, live or rebuilt
// vacancy); the chaos soak's oracle variants in internal/metasched pin
// exactly that. With no plan the session writes precisely what
// WriteIterationReport + WriteSummary produce for an undisturbed run, so
// the fault layer is provably neutral when idle.
type Session struct {
	sched *metasched.Scheduler
	plan  *Plan
	audit *Audit
	w     io.Writer
	// svc, when non-nil, switches the session to service mode: events route
	// through the driver's handlers (enqueueing evaluations) and each
	// iteration is a service round (Tick) instead of RunIteration. Because
	// a round is exactly the batch step sequence with evaluation-queue
	// bookkeeping around it, service-mode transcripts are byte-identical to
	// batch-mode ones — the service chaos differential pins this.
	svc ServiceDriver
	// next indexes the first plan event not yet applied.
	next int
}

// NewSession binds a scheduler to a fault plan (nil means no faults) and a
// transcript writer. The plan is validated against the grid's node pool.
func NewSession(s *metasched.Scheduler, plan *Plan, w io.Writer) (*Session, error) {
	if s == nil {
		return nil, fmt.Errorf("fault: nil scheduler")
	}
	if w == nil {
		w = io.Discard
	}
	if plan != nil {
		if err := plan.Validate(s.Grid().Pool()); err != nil {
			return nil, err
		}
	}
	return &Session{sched: s, plan: plan, audit: NewAudit(s), w: w}, nil
}

// NewServiceSession binds a continuous-service metascheduler to a fault plan:
// the session drives the service's event loop — plan events become service
// events, iterations become evaluation rounds — under the same audit and
// transcript contract as the batch session.
func NewServiceSession(svc *metasched.Service, plan *Plan, w io.Writer) (*Session, error) {
	if svc == nil {
		return nil, fmt.Errorf("fault: nil service")
	}
	return NewDriverSession(svc, plan, w)
}

// NewDriverSession binds any ServiceDriver — a plain service or the durable
// journaling wrapper — to a fault plan under the same audit and transcript
// contract. Sessions over a plain service and over its durable wrapper
// produce byte-identical transcripts; the crash-storm soak pins that.
func NewDriverSession(d ServiceDriver, plan *Plan, w io.Writer) (*Session, error) {
	if d == nil {
		return nil, fmt.Errorf("fault: nil service driver")
	}
	s, err := NewSession(d.Scheduler(), plan, w)
	if err != nil {
		return nil, err
	}
	s.svc = d
	return s, nil
}

// Audit returns the session's invariant checker.
func (s *Session) Audit() *Audit { return s.audit }

// Applied returns how many plan events have fired so far.
func (s *Session) Applied() int { return s.next }

// Run executes the given number of scheduling iterations under the fault
// plan. It stops with an error on the first invariant violation or
// scheduler failure; a normal return means the audit stayed clean
// throughout.
func (s *Session) Run(iterations int) error {
	for i := 0; i < iterations; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	WriteSummary(s.w, s.sched, s.next, s.plan.Len())
	return nil
}

// Resume fast-forwards the plan cursor past the first applied events without
// re-applying them: they already fired in a previous session whose committed
// state this session's scheduler was recovered from. Only a fresh session can
// resume. The crash-storm soak uses it to stitch a recovered continuation
// onto a crashed prefix and still assemble Run's exact transcript.
func (s *Session) Resume(applied int) error {
	if applied < 0 || applied > s.plan.Len() {
		return fmt.Errorf("fault: resume at event %d of %d", applied, s.plan.Len())
	}
	if s.next != 0 {
		return fmt.Errorf("fault: resume after %d events already applied", s.next)
	}
	s.next = applied
	return nil
}

// Step runs one audited round: inject due events, run the iteration, write
// its transcript, clear re-placed jobs from the resurrection watch, check the
// invariants. Run(n) is exactly n Steps plus the summary footer; crash-storm
// drivers call Step directly so they can crash and resume between rounds and
// still assemble a byte-identical transcript.
func (s *Session) Step() error {
	if err := s.injectDue(); err != nil {
		return err
	}
	rep, err := s.runIteration()
	if err != nil {
		return err
	}
	WriteIterationReport(s.w, rep)
	for _, p := range rep.Placed {
		s.audit.JobRescheduled(p.Job.Name)
	}
	if err := s.audit.Check(); err != nil {
		return fmt.Errorf("fault: after iteration %d: %w", rep.Iteration, err)
	}
	return nil
}

// Pending reports the in-flight work a finished Run leaves behind: plan
// events not yet applied plus, in service mode, evaluations still waiting in
// the service queue — including backoff-gated requeues whose retry time lies
// beyond the last iteration. Run(n) stops after exactly n rounds whatever
// remains; before this accessor existed that tail was dropped silently.
func (s *Session) Pending() int {
	n := s.plan.Len() - s.next
	if s.svc != nil {
		n += s.svc.QueueDepth()
	}
	return n
}

// Drain makes the end-of-plan tail explicit: it keeps running audited rounds
// until Pending reaches zero — every plan event applied, every queued
// evaluation (backoff requeues included) consumed by a round — or the round
// budget is exhausted, which is an error naming the work still in flight.
// Each drain round advances the clock exactly like a Run round, so gated
// requeues come due; the transcript gets the same iteration lines followed by
// a drain footer. It returns the number of rounds run.
func (s *Session) Drain(maxRounds int) (int, error) {
	ran := 0
	for s.Pending() > 0 {
		if ran >= maxRounds {
			return ran, fmt.Errorf("fault: drain: %d item(s) still pending after %d round(s)", s.Pending(), maxRounds)
		}
		if err := s.Step(); err != nil {
			return ran, err
		}
		ran++
	}
	fmt.Fprintf(s.w, "drained rounds=%d events=%d/%d\n", ran, s.next, s.plan.Len())
	return ran, nil
}

// runIteration runs one scheduling step: a service round in service mode, a
// batch iteration otherwise.
func (s *Session) runIteration() (*metasched.IterationReport, error) {
	if s.svc != nil {
		return s.svc.Tick()
	}
	return s.sched.RunIteration()
}

// injectDue applies every not-yet-applied plan event whose time has been
// reached, in plan order.
func (s *Session) injectDue() error {
	now := s.sched.Grid().Now()
	for s.next < s.plan.Len() {
		e := s.plan.Events[s.next]
		if e.At > now {
			return nil
		}
		s.next++
		if err := s.apply(e); err != nil {
			return err
		}
	}
	return nil
}

// apply injects one event through the matching scheduler hook, records the
// cancelled reservations with the audit, writes the transcript line, and
// checks the invariants.
func (s *Session) apply(e Event) error {
	s.audit.BeginEvent()
	var requeued []string
	var err error
	switch {
	case s.svc != nil:
		switch e.Kind {
		case Fail:
			requeued, err = s.svc.HandleNodeFailure(e.Node)
		case Recover:
			err = s.svc.HandleNodeRecovery(e.Node)
		case Revoke:
			requeued, err = s.svc.HandleRevocation(e.Node, e.Span)
		default:
			err = fmt.Errorf("unknown event kind %d", int(e.Kind))
		}
	default:
		switch e.Kind {
		case Fail:
			requeued, err = s.sched.HandleNodeFailure(e.Node)
		case Recover:
			err = s.sched.HandleNodeRecovery(e.Node)
		case Revoke:
			requeued, err = s.sched.HandleRevocation(e.Node, e.Span)
		default:
			err = fmt.Errorf("unknown event kind %d", int(e.Kind))
		}
	}
	if err != nil {
		return fmt.Errorf("fault: applying %v: %w", e, err)
	}
	cancelled := s.audit.EndEvent(e)
	fmt.Fprintf(s.w, "fault %v cancelled=%d requeued=%v drops=%d\n",
		e, len(cancelled), requeued, len(s.sched.DroppedJobs()))
	if err := s.audit.Check(); err != nil {
		return fmt.Errorf("fault: after event %v: %w", e, err)
	}
	return nil
}

// WriteIterationReport writes one iteration's canonical transcript lines.
// Fault sessions and the undisturbed baseline runs of the neutrality tests
// share this function, so "empty plan" and "no fault layer at all" can be
// compared byte for byte.
func WriteIterationReport(w io.Writer, rep *metasched.IterationReport) {
	fmt.Fprintf(w, "it=%d now=%v batch=%d alts=%d planT=%v planC=%v pf=%.3f\n",
		rep.Iteration, rep.Now, rep.BatchSize, rep.Alternatives, rep.PlanTime, rep.PlanCost, rep.PriceFactor)
	for _, p := range rep.Placed {
		fmt.Fprintf(w, "  placed %s -> %v wait=%v\n", p.Job.Name, p.Window.Window, p.WaitTime)
	}
	fmt.Fprintf(w, "  postponed=%v dropped=%v\n", rep.Postponed, rep.Dropped)
}

// WriteSummary writes the end-of-session canonical transcript footer: event
// application progress, the job ledger, retry-policy bookkeeping, terminal
// drops with reasons, and the per-domain owner income.
func WriteSummary(w io.Writer, s *metasched.Scheduler, applied, planned int) {
	fmt.Fprintf(w, "events=%d/%d queue=%d placed=%d\n", applied, planned, s.QueueLength(), s.PlacedCount())
	st := s.RetryStats()
	fmt.Fprintf(w, "retry cancelled=%d requeued=%d relaxed=%d exhausted=%d deadline=%d\n",
		st.Cancelled, st.Requeued, st.Relaxations, st.DroppedExhausted, st.DroppedDeadline)
	dropped := s.DroppedJobs()
	names := make([]string, 0, len(dropped))
	for name := range dropped {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "dropped %s reason=%s\n", name, dropped[name])
	}
	byDomain, total := s.Grid().OwnerIncome()
	domains := make([]string, 0, len(byDomain))
	for d := range byDomain {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, d := range domains {
		fmt.Fprintf(w, "income %s=%v\n", d, byDomain[d])
	}
	fmt.Fprintf(w, "income total=%v\n", total)
}
