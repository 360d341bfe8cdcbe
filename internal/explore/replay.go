package explore

import "fmt"

// Replay runs one specific schedule — a sequence of process ids, as found
// in Violation.Schedule — through exactly the step, spin-parking and
// checking machinery the explorer uses, and reports what it finds along the
// way. A violation's schedule therefore reproduces its finding
// deterministically, without re-running the exploration that found it.
//
// The schedule must be feasible: each entry must name a process that is
// runnable (unfinished, not parked) at that point. An infeasible schedule
// returns an error. A schedule cut short by a failed invariant check stops
// there, with the violation recorded; a schedule that completes every
// script additionally gets the leaf linearizability check.
func Replay(cfg Config, schedule []int) (Result, error) {
	cfg.Mode = ModePaths // replay follows one path and checks its history
	e, s, procs, err := newExplorer(cfg)
	if err != nil {
		return Result{}, err
	}
	for k, i := range schedule {
		if i < 0 || i >= len(procs) {
			return e.res, fmt.Errorf("explore: replay step %d names process %d of %d", k, i, len(procs))
		}
		cands, _ := candidates(s, procs)
		runnable := false
		for _, c := range cands {
			if c == i {
				runnable = true
				break
			}
		}
		if !runnable {
			return e.res, fmt.Errorf("explore: replay step %d: process %d is not runnable (done or parked)", k, i)
		}
		var ok bool
		s, procs, ok = e.advance(s, procs, i, schedule[:k])
		if !ok {
			return e.res, nil // checks failed; the violation is recorded
		}
	}
	cands, unfinished := candidates(s, procs)
	if unfinished == 0 {
		e.leaf(s, schedule)
	} else if len(cands) == 0 {
		e.blockedState(s, unfinished, schedule)
	}
	return e.res, e.err
}

// MinimizeSchedule shrinks a failing schedule by greedy chunk deletion
// (a ddmin-style pass with halving granularity) while Replay keeps
// reproducing a violation of the same kind. The result is feasible by
// construction — every candidate is validated by an actual replay.
func MinimizeSchedule(cfg Config, schedule []int, kind string) []int {
	reproduces := func(cand []int) bool {
		res, err := Replay(cfg, cand)
		if err != nil {
			return false // infeasible candidate
		}
		for _, v := range res.Violations {
			if v.Kind == kind {
				return true
			}
		}
		return false
	}
	cur := append([]int(nil), schedule...)
	if !reproduces(cur) {
		// A violation found mid-exploration need not re-fire from its own
		// prefix alone (a linearizability leaf does; a parked detection may
		// not). Report the schedule unshrunk rather than a wrong one.
		return cur
	}
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(cur); {
			cand := make([]int, 0, len(cur)-chunk)
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[start+chunk:]...)
			if reproduces(cand) {
				cur = cand // retry the same offset at the new, shorter tail
			} else {
				start += chunk
			}
		}
	}
	return cur
}

// minimizeViolations fills in Violation.Minimized for every recorded
// finding (Run calls it after a clean exploration pass). Replay runs in
// ModePaths, so graph-mode findings minimize too.
func (e *explorer) minimizeViolations() {
	for i := range e.res.Violations {
		v := &e.res.Violations[i]
		if len(v.Schedule) == 0 {
			continue
		}
		v.Minimized = MinimizeSchedule(e.cfg, v.Schedule, v.Kind)
	}
}
