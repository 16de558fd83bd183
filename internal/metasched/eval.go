package metasched

import (
	"fmt"
	"sort"

	"ecosched/internal/sim"
)

// Trigger enumerates what caused an evaluation to be enqueued.
type Trigger int

const (
	// TriggerSubmit marks a newly submitted job.
	TriggerSubmit Trigger = iota
	// TriggerFail marks a node failure that cancelled reservations.
	TriggerFail
	// TriggerRecover marks a failed node re-joining the pool.
	TriggerRecover
	// TriggerRevoke marks an owner reclaiming a booked interval.
	TriggerRevoke
	// TriggerTick marks a periodic clock tick.
	TriggerTick
	// TriggerRequeue marks a plan window the applier rejected as stale; its
	// evaluation re-enters the queue under the retry backoff.
	TriggerRequeue
)

// String names the trigger.
func (t Trigger) String() string {
	switch t {
	case TriggerSubmit:
		return "submit"
	case TriggerFail:
		return "fail"
	case TriggerRecover:
		return "recover"
	case TriggerRevoke:
		return "revoke"
	case TriggerTick:
		return "tick"
	case TriggerRequeue:
		return "requeue"
	}
	return fmt.Sprintf("trigger(%d)", int(t))
}

// priority ranks triggers for dequeue order: capacity-destroying events
// evaluate before capacity-adding ones, fresh work before retries, and the
// periodic tick last. Lower ranks dequeue first.
func (t Trigger) priority() int {
	switch t {
	case TriggerFail:
		return 0
	case TriggerRevoke:
		return 1
	case TriggerRecover:
		return 2
	case TriggerSubmit:
		return 3
	case TriggerRequeue:
		return 4
	default: // TriggerTick and anything unknown
		return 5
	}
}

// Eval is one queued evaluation request: an event happened (job submitted,
// node failed or recovered, interval revoked, clock ticked, stale plan
// rejected) and the scheduler should re-examine the queue against the grid.
// Evaluations carry no payload beyond their cause — planning always reads
// the full current state — so two evaluations with the same trigger and
// subject are interchangeable, which is what licenses coalescing.
type Eval struct {
	// ID is the queue-assigned monotone sequence number; it breaks ordering
	// ties so dequeue order is total and deterministic.
	ID uint64
	// Trigger is the event class that enqueued the evaluation.
	Trigger Trigger
	// Subject names what the event concerned: the job for submit/requeue
	// triggers, the node label for fail/recover/revoke, empty for ticks.
	Subject string
	// Priority is the dequeue rank (lower first); set from the trigger.
	Priority int
	// Created is the sim time the evaluation was enqueued.
	Created sim.Time
	// NotBefore holds the evaluation out of rounds until the clock reaches
	// it — the requeue path's backoff gate. Zero means eligible now.
	NotBefore sim.Time
	// Attempt counts requeue generations for TriggerRequeue evaluations.
	Attempt int
}

// evalQueue is the pending evaluation set, kept sorted by
// (Priority, Created, ID) — stable priority order with FIFO ties — exactly
// the ordering the model-based queue test pins against a naive sorted-slice
// model. NotBefore does not affect the ordering, only eligibility.
type evalQueue struct {
	pending []*Eval
	nextID  uint64
}

// less is the queue's total dequeue order.
func evalLess(a, b *Eval) bool {
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	if a.Created != b.Created {
		return a.Created < b.Created
	}
	return a.ID < b.ID
}

// push inserts the evaluation in sorted position, assigning its ID, and
// reports whether it was actually enqueued. A pending evaluation with the
// same trigger and subject that is eligible no later than the new one
// subsumes it — evaluations read full state, so running the earlier one
// answers the later request too — and the push coalesces to nothing.
func (q *evalQueue) push(e *Eval) bool {
	for _, p := range q.pending {
		if p.Trigger == e.Trigger && p.Subject == e.Subject && p.NotBefore <= e.NotBefore {
			return false
		}
	}
	q.nextID++
	e.ID = q.nextID
	i := sort.Search(len(q.pending), func(i int) bool { return !evalLess(q.pending[i], e) })
	q.pending = append(q.pending, nil)
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = e
	return true
}

// popDue removes and returns the first evaluation eligible at now — the
// minimum of the (Priority, Created, ID) order among entries whose NotBefore
// has passed — or nil when none is eligible.
func (q *evalQueue) popDue(now sim.Time) *Eval {
	for i, e := range q.pending {
		if e.NotBefore <= now {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			return e
		}
	}
	return nil
}

// len returns the number of pending evaluations.
func (q *evalQueue) len() int { return len(q.pending) }
