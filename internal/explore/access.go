package explore

import "fmt"

// This file declares the shared-location footprint of every event of every
// modelled machine. The DPOR engine (dpor.go) decides whether two
// transitions commute purely from these declarations, so the one soundness
// rule is: an event's declared footprint must cover every shared location
// its step-function case can read or write, *including the inputs of the
// conditions that decide what it does*. A conditional write whose condition
// reads a location must declare that read even on the branch that writes
// nothing — otherwise an earlier transition that flips the condition would
// be treated as independent and the flipped branch never explored.
// Over-approximation is always safe (it only costs reduction); any
// under-approximation is a soundness bug, and the cross-check tests
// (dpor_test.go) compare DPOR verdicts against full enumeration to catch
// one.

// locKind names a class of shared location.
type locKind uint8

const (
	lkHead     locKind = iota + 1 // the queue's Head word
	lkTail                        // the queue's Tail word
	lkNext                        // a node's next word (idx = node)
	lkValue                       // a node's value cell (idx = node)
	lkRefct                       // a node's Valois reference counter (idx = node)
	lkFree                        // the free-list (one location: pop and push are single events)
	lkHLock                       // the two-lock machine's head lock
	lkTLock                       // the two-lock machine's tail lock
	lkHist                        // the history: invokes read it, returns write it
	lkEpGlobal                    // the epoch domain's global epoch word
	lkEpPin                       // a participant's pin word (idx = process)
	lkEpLimbo                     // a participant's limbo buckets (idx = process)
	lkRHead                       // the ring's head reservation counter
	lkRTail                       // the ring's tail reservation counter
	lkRThresh                     // the ring's threshold counter
	lkRSlot                       // a ring slot word (idx = slot)
)

// loc is one shared location. idx disambiguates within a kind (node index,
// participant index, slot index); -1 for singleton kinds.
type loc struct {
	kind locKind
	idx  int32
}

// access is the footprint of one transition.
type access struct {
	reads  []loc
	writes []loc
}

func (a *access) rd(k locKind, idx int32) { a.reads = append(a.reads, loc{k, idx}) }
func (a *access) wr(k locKind, idx int32) { a.writes = append(a.writes, loc{k, idx}) }

// rw declares a CAS-shaped access: the word is read (the comparison) and
// potentially written, whichever way the comparison goes.
func (a *access) rw(k locKind, idx int32) { a.rd(k, idx); a.wr(k, idx) }

// conflicts reports whether the two footprints fail to commute: some
// location is written by one and touched by the other. History writes are
// exempt from write-write conflicts: two adjacent returns with no invoke
// between them order response timestamps, and the linearizability verdict
// depends only on the precedence relation, which adjacent-swap cannot
// change. A return and an invoke (write vs read) DO conflict — swapping
// them would erase a real-time precedence edge, exactly the reordering that
// masks violations in the flawed comparators.
func conflicts(a, b access) bool {
	for _, w := range a.writes {
		for _, w2 := range b.writes {
			if w == w2 && w.kind != lkHist {
				return true
			}
		}
		for _, r := range b.reads {
			if w == r {
				return true
			}
		}
	}
	for _, r := range a.reads {
		for _, w := range b.writes {
			if r == w {
				return true
			}
		}
	}
	return false
}

// allocAccess is the footprint of a free-list pop: the pop itself, plus the
// popped node's field resets. The node written is the current stack top —
// any earlier transition that changes the top conflicts on lkFree, so
// computing it from the current state is exact, not a race.
func allocAccess(s *State, a *access, refct bool) {
	a.rw(lkFree, -1)
	if len(s.Free) > 0 {
		top := s.Free[len(s.Free)-1]
		a.wr(lkNext, top)
		a.wr(lkValue, top)
		if refct {
			a.wr(lkRefct, top)
		}
	}
}

// nextAccess predicts the footprint of p's next step in state s without
// mutating either. The pcIdle dispatch executes the first event of the next
// operation in the same step, so its footprint is that event's plus the
// invoke's history read; events that (may) complete an operation add the
// return's history write.
func nextAccess(s *State, p *Proc) access {
	var a access
	cpc := p.pc
	if cpc == pcIdle {
		a.rd(lkHist, -1) // the invoke
		cpc = p.entryPC()
	}

	switch cpc {
	// --- MS ---
	case msEnqAlloc:
		allocAccess(s, &a, false)
	case msEnqReadTail, msEnqCheck:
		a.rd(lkTail, -1)
	case msEnqReadNext:
		a.rd(lkNext, p.tail.Idx)
	case msEnqCASNext:
		a.rw(lkNext, p.tail.Idx)
	case msEnqHelp:
		a.rw(lkTail, -1)
	case msEnqSwing:
		a.rw(lkTail, -1)
		a.wr(lkHist, -1)
	case msDeqReadHead:
		a.rd(lkHead, -1)
	case msDeqReadTail:
		a.rd(lkTail, -1)
	case msDeqReadNext:
		a.rd(lkNext, p.head.Idx)
	case msDeqCheck:
		a.rd(lkHead, -1)
		a.wr(lkHist, -1) // may complete (empty)
	case msDeqHelp:
		a.rw(lkTail, -1)
	case msDeqReadValue:
		a.rd(lkValue, p.next.Idx)
	case msDeqCASHead:
		a.rw(lkHead, -1)
	case msDeqFree:
		a.wr(lkFree, -1)
		a.wr(lkHist, -1)

	// --- Stone ---
	case stEnqAlloc:
		allocAccess(s, &a, false)
	case stEnqReadTail:
		a.rd(lkTail, -1)
	case stEnqCASTail:
		a.rw(lkTail, -1)
	case stEnqLink:
		a.rw(lkNext, p.tail.Idx)
		a.wr(lkHist, -1)
	case stDeqReadHead:
		a.rd(lkHead, -1)
	case stDeqReadNext:
		a.rd(lkNext, p.head.Idx)
		a.wr(lkHist, -1) // may complete (empty)
	case stDeqReadValue:
		a.rd(lkValue, p.next.Idx)
	case stDeqCASHead:
		a.rw(lkHead, -1)
		a.wr(lkFree, -1)
		a.wr(lkHist, -1)

	// --- Mellor-Crummey ---
	case mcEnqAlloc:
		allocAccess(s, &a, false)
	case mcEnqSwap:
		a.rw(lkTail, -1)
	case mcEnqLink:
		a.rw(lkNext, p.prev.Idx)
		a.wr(lkHist, -1)
	case mcDeqReadHead:
		a.rd(lkHead, -1)
	case mcDeqReadNext:
		a.rd(lkNext, p.head.Idx)
	case mcDeqCheckTail:
		a.rd(lkTail, -1)
		a.wr(lkHist, -1) // may complete (empty)
	case mcDeqReadValue:
		a.rd(lkValue, p.next.Idx)
	case mcDeqCASHead:
		a.rw(lkHead, -1)
		a.wr(lkHist, -1)

	// --- two-lock ---
	case tlEnqAlloc:
		allocAccess(s, &a, false)
	case tlEnqLock:
		a.rw(lkTLock, -1)
	case tlEnqReadTail:
		a.rd(lkTail, -1)
	case tlEnqLink:
		a.rw(lkNext, p.tail.Idx)
	case tlEnqSwing:
		a.rw(lkTail, -1)
	case tlEnqUnlock:
		a.wr(lkTLock, -1)
		a.wr(lkHist, -1)
	case tlDeqLock:
		a.rw(lkHLock, -1)
	case tlDeqReadHead:
		a.rd(lkHead, -1)
	case tlDeqReadNext:
		a.rd(lkNext, p.head.Idx)
	case tlDeqEmptyUnlock:
		a.wr(lkHLock, -1)
		a.wr(lkHist, -1)
	case tlDeqReadValue:
		a.rd(lkValue, p.next.Idx)
	case tlDeqSwing:
		a.rw(lkHead, -1)
	case tlDeqUnlock:
		a.wr(lkHLock, -1)
	case tlDeqFree:
		a.wr(lkFree, -1)
		a.wr(lkHist, -1)

	// --- Valois ---
	case vEnqAlloc:
		allocAccess(s, &a, true)
	case vEnqReadTailWord:
		a.rd(lkTail, -1)
	case vEnqIncTail, vEnqWalkInc, vDeqIncHead, vDeqIncNext:
		a.rw(lkRefct, p.target.Idx)
	case vEnqValidateTail:
		a.rd(lkTail, -1)
	case vEnqReadNext, vEnqWalkReadNextWord, vEnqWalkValidate:
		a.rd(lkNext, p.tail.Idx)
	case vEnqIncProvisional, vEnqUndoProvisional:
		a.rw(lkRefct, p.node)
	case vEnqCASNext:
		a.rw(lkNext, p.tail.Idx)
	case vEnqAdvReadTail:
		a.rd(lkTail, -1)
	case vEnqAdvInc, vEnqAdvUndo:
		a.rw(lkRefct, p.advanceTarget().Idx)
	case vEnqAdvCAS:
		a.rw(lkTail, -1)
	case vEnqReleaseT:
		// Pure bookkeeping: sets up the next release cascade.
	case vEnqReleaseN, vDeqEmptyRelease, vDeqReleaseHeadTemp:
		a.wr(lkHist, -1) // completion; the cascade itself is the next event
	case vDeqReadHeadWord, vDeqValidateHead:
		a.rd(lkHead, -1)
	case vDeqReadNextWord, vDeqValidateNext:
		a.rd(lkNext, p.head.Idx)
	case vDeqIncProvisional, vDeqUndoProvisional:
		a.rw(lkRefct, p.next.Idx)
	case vDeqCASHead:
		a.rw(lkHead, -1)
	case vDeqReleaseOldHead, vDeqReleaseNextTemp, vDeqFailReleaseNext, vDeqFailReleaseHead:
		// Pure bookkeeping.
	case vDeqReadValue:
		a.rd(lkValue, p.next.Idx)
	case vRelease:
		// Decrement (always), plus — when the counter hits zero — a read of
		// the dying node's link and a free-list push. The zero test reads the
		// counter this event itself writes, so rw covers it.
		a.rw(lkRefct, p.relCur.Idx)
		a.rd(lkNext, p.relCur.Idx)
		a.wr(lkFree, -1)

	// --- epoch ---
	case epEnqPinLoad, epDeqPinLoad:
		a.rd(lkEpGlobal, -1)
	case epEnqPinPublish, epDeqPinPublish:
		a.wr(lkEpPin, int32(p.ID))
	case epEnqPinCheck, epDeqPinCheck:
		a.rd(lkEpGlobal, -1)
		a.rw(lkEpLimbo, int32(p.ID)) // opportunistic flush on success
		a.wr(lkFree, -1)
	case epEnqAlloc:
		allocAccess(s, &a, false)
	case epEnqReadTail, epEnqCheck:
		a.rd(lkTail, -1)
	case epEnqReadNext:
		a.rd(lkNext, p.tail.Idx)
	case epEnqCASNext:
		a.rw(lkNext, p.tail.Idx)
	case epEnqHelp, epEnqSwing:
		a.rw(lkTail, -1)
	case epEnqUnpin, epDeqUnpin, epDeqEmptyUnpin:
		a.wr(lkEpPin, int32(p.ID))
		a.wr(lkHist, -1)
	case epDeqReadHead:
		a.rd(lkHead, -1)
	case epDeqReadTail:
		a.rd(lkTail, -1)
	case epDeqReadNext:
		a.rd(lkNext, p.head.Idx)
	case epDeqCheck:
		a.rd(lkHead, -1) // the empty path completes later, at epDeqEmptyUnpin
	case epDeqHelp:
		a.rw(lkTail, -1)
	case epDeqReadValue:
		a.rd(lkValue, p.next.Idx)
	case epDeqCASHead:
		a.rw(lkHead, -1)
	case epDeqRetire:
		a.rd(lkEpGlobal, -1) // the keying read (shipped variant)
		a.rw(lkEpLimbo, int32(p.ID))
		a.wr(lkFree, -1) // stale-bucket free
	case epDeqAdvance:
		a.rd(lkEpGlobal, -1)
		for i := range s.Epoch.Parts {
			a.rd(lkEpPin, int32(i)) // the advance scan
		}
		a.wr(lkEpGlobal, -1)
		a.rw(lkEpLimbo, int32(p.ID)) // flush on success
		a.wr(lkFree, -1)

	// --- ring ---
	case rqEnqFAATail:
		a.rw(lkRTail, -1)
	case rqEnqLoadSlot:
		a.rd(lkRSlot, int32(s.Ring.remap(p.rpos)))
	case rqEnqCheck:
		a.rd(lkRHead, -1) // the unsafe-slot claimability probe
	case rqEnqCASSlot, rqDeqCASConsume, rqDeqCASAdvance:
		a.rw(lkRSlot, int32(s.Ring.remap(p.rpos)))
		if cpc == rqDeqCASConsume {
			a.wr(lkHist, -1)
		}
	case rqEnqResetThresh:
		a.rw(lkRThresh, -1)
		a.wr(lkHist, -1)
	case rqDeqThresh:
		a.rd(lkRThresh, -1)
	case rqDeqEmptyFast:
		a.wr(lkHist, -1)
	case rqDeqFAAHead:
		a.rw(lkRHead, -1)
	case rqDeqLoadSlot:
		a.rd(lkRSlot, int32(s.Ring.remap(p.rpos)))
	case rqDeqCheck, rqDeqEmptyCheck:
		// Pure local decisions over the loaded snapshots.
	case rqDeqLoadTail:
		a.rd(lkRTail, -1)
	case rqDeqCatchup:
		a.rw(lkRTail, -1)
		a.rd(lkRHead, -1) // the failed-CAS reload
	case rqDeqSpendEmpty, rqDeqSpendRetry:
		a.rw(lkRThresh, -1)
		a.wr(lkHist, -1)

	default:
		panic(fmt.Sprintf("explore: no access declaration for pc %d (algo %v)", cpc, p.Algo))
	}
	return a
}
