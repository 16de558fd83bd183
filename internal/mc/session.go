package mc

import (
	"fmt"
	"strings"

	"ecosched/internal/fault"
	"ecosched/internal/metasched"
)

// SessionCompatible reports whether the trace has the shape fault.Session
// can reproduce: all submits before the first plan, every plan immediately
// followed by its commit, fault events only between iterations, no bare
// clock ticks, and a commit as the final action (so every event fires
// within Session.Run's iteration loop). For such traces the explorer's
// transcript and a Session driven by the trace's fault plan must be
// byte-identical — the differential suite pins exactly that.
func SessionCompatible(trace []Action) bool {
	sawPlan := false
	open := false
	last := -1
	for i, a := range trace {
		switch a.Kind {
		case ActSubmit:
			if sawPlan {
				return false
			}
		case ActPlan:
			if open {
				return false
			}
			sawPlan = true
			open = true
		case ActCommit:
			if !open {
				return false
			}
			open = false
			last = i
		case ActTick:
			return false
		case ActFail, ActRecover, ActRevoke:
			if open {
				return false
			}
		default:
			return false
		}
	}
	return !open && last == len(trace)-1
}

// SessionTranscripts replays a session-compatible trace twice — once
// through the explorer's instance, once through a fresh fault.Session
// driven by the plan the first replay recorded — and returns both
// transcripts. The caller asserts byte equality.
func SessionTranscripts(u *Universe, trace []Action) (mcT, sessT string, err error) {
	if !SessionCompatible(trace) {
		return "", "", fmt.Errorf("mc: trace is not session-compatible")
	}

	// Explorer side: drive the instance with a transcript writer, then
	// append the summary footer Session.Run writes.
	var mcB strings.Builder
	in, err := Replay(u, MutNone, trace, &mcB)
	if err != nil {
		return "", "", err
	}
	applied := len(in.Events())
	fault.WriteSummary(&mcB, in.Scheduler(), applied, applied)

	// Session side: a fresh scheduler wrapped in the service the session
	// drives, all jobs submitted up front, the recorded events as the fault
	// plan, one round per commit. The explorer's plan/commit pair is exactly
	// the step sequence a round wraps, so the transcripts must agree.
	iterations := 0
	for _, a := range trace {
		if a.Kind == ActCommit {
			iterations++
		}
	}
	plan, err := fault.NewPlan(in.Events()...)
	if err != nil {
		return "", "", err
	}
	fresh, err := NewInstance(u, MutNone, nil)
	if err != nil {
		return "", "", err
	}
	svc, err := metasched.NewService(fresh.sched, metasched.ServiceConfig{})
	if err != nil {
		return "", "", err
	}
	for _, a := range trace {
		if a.Kind == ActSubmit {
			if err := svc.Submit(u.buildJob(a.Arg)); err != nil {
				return "", "", err
			}
		}
	}
	var sessB strings.Builder
	sess, err := fault.NewSession(svc, plan, &sessB)
	if err != nil {
		return "", "", err
	}
	if err := sess.Run(iterations); err != nil {
		return "", "", err
	}
	return mcB.String(), sessB.String(), nil
}
