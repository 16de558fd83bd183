package metasched

import (
	"fmt"
	"sort"
	"testing"

	"ecosched/internal/sim"
)

// evalModel is the naive reference implementation of the evaluation queue:
// an unordered slice, coalescing by linear scan, dequeue by sorting a copy
// of the eligible entries under the same (Priority, Created, ID) order. The
// production queue maintains sorted order incrementally; the model derives
// it from scratch on every operation, so agreement over random operation
// sequences pins the incremental maintenance.
type evalModel struct {
	pending []*Eval
	nextID  uint64
}

func (m *evalModel) push(e *Eval) bool {
	for _, p := range m.pending {
		if p.Trigger == e.Trigger && p.Subject == e.Subject && p.NotBefore <= e.NotBefore {
			return false
		}
	}
	m.nextID++
	e.ID = m.nextID
	m.pending = append(m.pending, e)
	return true
}

func (m *evalModel) popDue(now sim.Time) *Eval {
	var due []*Eval
	for _, e := range m.pending {
		if e.NotBefore <= now {
			due = append(due, e)
		}
	}
	if len(due) == 0 {
		return nil
	}
	sort.Slice(due, func(i, k int) bool { return evalLess(due[i], due[k]) })
	best := due[0]
	for i, e := range m.pending {
		if e == best {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			break
		}
	}
	return best
}

// evalKey renders an evaluation for comparison; the ID is included because
// both implementations must assign identical sequence numbers.
func evalKey(e *Eval) string {
	if e == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%d/%s/%s/p%d/c%d/nb%d/a%d",
		e.ID, e.Trigger, e.Subject, e.Priority, int64(e.Created), int64(e.NotBefore), e.Attempt)
}

// TestEvalQueueModel drives the production evaluation queue and the naive
// model through 50 seeded random sequences of enqueue, requeue (backoff-gated
// enqueue), dequeue, and clock-advance operations, asserting after every
// operation that they agree on the outcome and the total pending count —
// stable priority/tick ordering, nothing lost, nothing duplicated.
func TestEvalQueueModel(t *testing.T) {
	triggers := []Trigger{TriggerSubmit, TriggerFail, TriggerRecover, TriggerRevoke, TriggerTick, TriggerRequeue}
	subjects := []string{"", "a", "b", "c"}
	for seed := uint64(1); seed <= 50; seed++ {
		rng := sim.NewRNG(seed)
		var q evalQueue
		var m evalModel
		now := sim.Time(0)
		popped := map[uint64]bool{}
		for op := 0; op < 300; op++ {
			switch rng.IntBetween(0, 3) {
			case 0, 1: // enqueue (half of them backoff-gated like a requeue)
				tr := triggers[rng.IntBetween(0, len(triggers)-1)]
				subj := subjects[rng.IntBetween(0, len(subjects)-1)]
				var nb sim.Time
				if rng.IntBetween(0, 1) == 1 {
					nb = now.Add(sim.Duration(rng.IntBetween(0, 120)))
				}
				mk := func() *Eval {
					return &Eval{
						Trigger:   tr,
						Subject:   subj,
						Priority:  tr.priority(),
						Created:   now,
						NotBefore: nb,
						Attempt:   op % 5,
					}
				}
				gotPushed := q.push(mk())
				wantPushed := m.push(mk())
				if gotPushed != wantPushed {
					t.Fatalf("seed %d op %d: push accepted=%t, model accepted=%t", seed, op, gotPushed, wantPushed)
				}
			case 2: // dequeue the best eligible evaluation
				got := q.popDue(now)
				want := m.popDue(now)
				if evalKey(got) != evalKey(want) {
					t.Fatalf("seed %d op %d now=%d: popDue = %s, model = %s", seed, op, int64(now), evalKey(got), evalKey(want))
				}
				if got != nil {
					if popped[got.ID] {
						t.Fatalf("seed %d op %d: evaluation %d popped twice", seed, op, got.ID)
					}
					popped[got.ID] = true
				}
			case 3: // advance the clock, unlocking backoff-gated entries
				now = now.Add(sim.Duration(rng.IntBetween(1, 90)))
			}
			if q.len() != len(m.pending) {
				t.Fatalf("seed %d op %d: queue len %d, model len %d", seed, op, q.len(), len(m.pending))
			}
		}
		// Drain both completely at a far-future time: the full dequeue
		// sequences must agree, proving no evaluation was lost or held back.
		end := now.Add(1 << 20)
		for {
			got := q.popDue(end)
			want := m.popDue(end)
			if evalKey(got) != evalKey(want) {
				t.Fatalf("seed %d drain: popDue = %s, model = %s", seed, evalKey(got), evalKey(want))
			}
			if got == nil {
				break
			}
			if popped[got.ID] {
				t.Fatalf("seed %d drain: evaluation %d popped twice", seed, got.ID)
			}
			popped[got.ID] = true
		}
		if q.len() != 0 {
			t.Fatalf("seed %d: %d evaluations left after drain", seed, q.len())
		}
	}
}

// TestEvalQueueOrdering pins the dequeue order directly: capacity events
// before submissions before requeues before ticks, FIFO within a priority
// class, and backoff gates holding entries back without reordering them.
func TestEvalQueueOrdering(t *testing.T) {
	var q evalQueue
	push := func(tr Trigger, subj string, created, notBefore sim.Time) {
		if !q.push(&Eval{Trigger: tr, Subject: subj, Priority: tr.priority(), Created: created, NotBefore: notBefore}) {
			t.Fatalf("push %s/%s unexpectedly coalesced", tr, subj)
		}
	}
	push(TriggerTick, "", 0, 0)
	push(TriggerSubmit, "a", 1, 0)
	push(TriggerSubmit, "b", 2, 0)
	push(TriggerFail, "n1", 3, 0)
	push(TriggerRequeue, "a", 3, 10)
	var order []string
	for {
		e := q.popDue(5)
		if e == nil {
			break
		}
		order = append(order, e.Trigger.String()+":"+e.Subject)
	}
	want := "[fail:n1 submit:a submit:b tick:]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("eligible dequeue order %v, want %v", got, want)
	}
	if e := q.popDue(10); e == nil || e.Trigger != TriggerRequeue {
		t.Fatalf("backoff-gated requeue not released at its NotBefore: %s", evalKey(e))
	}
	// Coalescing: a pending submit for the same subject absorbs a duplicate.
	push(TriggerSubmit, "x", 20, 0)
	if q.push(&Eval{Trigger: TriggerSubmit, Subject: "x", Priority: TriggerSubmit.priority(), Created: 21}) {
		t.Fatal("duplicate submit evaluation was not coalesced")
	}
	// But a pending gated entry does not absorb an earlier-eligible one.
	push(TriggerRequeue, "y", 22, 100)
	if !q.push(&Eval{Trigger: TriggerRequeue, Subject: "y", Priority: TriggerRequeue.priority(), Created: 23}) {
		t.Fatal("immediately eligible requeue was wrongly coalesced into a gated one")
	}
}
