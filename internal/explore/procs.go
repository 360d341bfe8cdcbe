package explore

import (
	"fmt"
	"sort"

	"msqueue/internal/linearizability"
)

// Algo selects which algorithm's state machine a process runs.
type Algo int

// The modelled algorithms.
const (
	AlgoMS Algo = iota + 1
	AlgoStone
	AlgoMC
	AlgoTwoLock
)

// String names the algorithm.
func (a Algo) String() string {
	switch a {
	case AlgoMS:
		return "ms"
	case AlgoStone:
		return "stone"
	case AlgoMC:
		return "mc"
	case AlgoTwoLock:
		return "two-lock"
	case AlgoValois:
		return "valois"
	case AlgoEpoch:
		return "epoch"
	case AlgoEpochPinKeyed:
		return "epoch-pinkeyed"
	case AlgoRing:
		return "ring"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// OpSpec is one operation of a process's script.
type OpSpec struct {
	Enqueue bool
	Value   int
}

// Enq and Deq build op specs.
func Enq(v int) OpSpec { return OpSpec{Enqueue: true, Value: v} }

// Deq is a dequeue op spec.
func Deq() OpSpec { return OpSpec{} }

// pc is a program counter over all machines; the names mirror the paper's
// line labels.
type pc int

const (
	pcIdle pc = iota

	msEnqAlloc    // E1–E3
	msEnqReadTail // E5
	msEnqReadNext // E6
	msEnqCheck    // E7–E8
	msEnqCASNext  // E9
	msEnqHelp     // E12
	msEnqSwing    // E13

	msDeqReadHead  // D2
	msDeqReadTail  // D3
	msDeqReadNext  // D4
	msDeqCheck     // D5–D7
	msDeqHelp      // D9
	msDeqReadValue // D11
	msDeqCASHead   // D12
	msDeqFree      // D14

	stEnqAlloc
	stEnqReadTail
	stEnqCASTail
	stEnqLink

	stDeqReadHead
	stDeqReadNext
	stDeqReadValue
	stDeqCASHead

	mcEnqAlloc
	mcEnqSwap
	mcEnqLink

	mcDeqReadHead
	mcDeqReadNext
	mcDeqCheckTail
	mcDeqReadValue
	mcDeqCASHead

	tlEnqAlloc
	tlEnqLock
	tlEnqReadTail
	tlEnqLink
	tlEnqSwing
	tlEnqUnlock

	tlDeqLock
	tlDeqReadHead
	tlDeqReadNext
	tlDeqEmptyUnlock
	tlDeqReadValue
	tlDeqSwing
	tlDeqUnlock
	tlDeqFree
)

// Proc is one process: a script of operations plus the machine's current
// program counter and locals. Proc is a value type; the explorer clones it
// by plain copy (the Ops slice is immutable and shared).
type Proc struct {
	ID   int
	Algo Algo
	Ops  []OpSpec

	cur     int
	pc      pc
	node    int32
	tail    Ref
	next    Ref
	head    Ref
	prev    Ref
	value   int
	invoked int64

	// Valois-machine extras: the SafeRead candidate, the walk target, the
	// advanceTail snapshot, the release-cascade cursor and return pc, and
	// the multiset of node references this process currently holds (the
	// ledger check's input).
	target Ref
	walk   Ref
	walked bool
	adv    Ref
	relCur Ref
	retPC  pc
	held   []int32

	// Epoch-machine extras: the pin epoch observed during the publish loop
	// (the held slice doubles as the pinned-reference ledger: exactly three
	// role slots — head, tail, next — holding node indices read from shared
	// memory under the current pin, -1 when vacant).
	eEpoch uint64

	// Ring-machine extras: the reserved position, the slot word snapshot
	// the pending CAS compares against, and the tail snapshot of the
	// current catch-up attempt.
	rpos  uint64
	rslot uint64
	rtail uint64

	// Scheduling bookkeeping maintained by the explorer.
	quiet    int    // consecutive steps with the version unchanged throughout
	anchor   string // local state at the start of the unchanged-version window
	lastSeen uint64 // shared-state version observed at the previous step
	parked   bool   // true when detected spinning; cleared on version change
	parkedAt uint64 // version at which the process was parked
}

// Done reports whether the whole script has completed, including any
// trailing cleanup (the Valois machine's release cascade can outlive its
// operation's completion).
func (p *Proc) Done() bool { return p.cur >= len(p.Ops) && p.pc == pcIdle }

// localKey captures the machine state (not the scheduling bookkeeping) for
// diagnostics and memoisation.
func (p *Proc) localKey() string {
	key := fmt.Sprintf("%d@%d:pc%d n%d t%v x%v h%v p%v v%d", p.ID, p.cur, p.pc, p.node, p.tail, p.next, p.head, p.prev, p.value)
	switch p.Algo {
	case AlgoValois:
		held := append([]int32(nil), p.held...)
		sort.Slice(held, func(i, j int) bool { return held[i] < held[j] })
		key += fmt.Sprintf(" g%v w%v%v a%v r%v@%d H%v", p.target, p.walk, p.walked, p.adv, p.relCur, p.retPC, held)
	case AlgoEpoch, AlgoEpochPinKeyed:
		key += fmt.Sprintf(" e%d H%v", p.eEpoch, p.held)
	case AlgoRing:
		key += fmt.Sprintf(" P%d S%d T%d", p.rpos, p.rslot, p.rtail)
	}
	return key
}

// entryPC returns the machine entry point for the process's next scripted
// operation; step dispatches through it.
func (p *Proc) entryPC() pc {
	op := p.Ops[p.cur]
	switch p.Algo {
	case AlgoMS:
		if op.Enqueue {
			return msEnqAlloc
		}
		return msDeqReadHead
	case AlgoStone:
		if op.Enqueue {
			return stEnqAlloc
		}
		return stDeqReadHead
	case AlgoMC:
		if op.Enqueue {
			return mcEnqAlloc
		}
		return mcDeqReadHead
	case AlgoTwoLock:
		if op.Enqueue {
			return tlEnqAlloc
		}
		return tlDeqLock
	case AlgoValois:
		if op.Enqueue {
			return vEnqAlloc
		}
		return vDeqReadHeadWord
	case AlgoEpoch, AlgoEpochPinKeyed:
		if op.Enqueue {
			return epEnqPinLoad
		}
		return epDeqPinLoad
	case AlgoRing:
		if op.Enqueue {
			return rqEnqFAATail
		}
		return rqDeqThresh
	default:
		panic(fmt.Sprintf("explore: no entry pc for algorithm %v", p.Algo))
	}
}

// step executes exactly one shared-memory event. It reports whether the
// event performed a write (for spin detection). Completion of operations is
// recorded into the state's history.
func (p *Proc) step(s *State) (wrote bool) {
	versionBefore := s.Version
	now := s.tick()

	if p.pc == pcIdle {
		// Dispatch the next operation; the dispatch itself consumes the
		// first event of the operation below, so fall through after
		// setting the entry pc.
		p.invoked = now
		if p.Algo == AlgoValois {
			p.walked = false
		}
		p.pc = p.entryPC()
	}

	switch p.Algo {
	case AlgoValois:
		p.stepValois(s, now)
		return s.Version != versionBefore
	case AlgoEpoch, AlgoEpochPinKeyed:
		p.stepEpoch(s, now)
		return s.Version != versionBefore
	case AlgoRing:
		p.stepRing(s, now)
		return s.Version != versionBefore
	}

	switch p.pc {
	// --- MS enqueue (Figure 1, lines E1–E13) ---
	case msEnqAlloc:
		idx, ok := s.alloc()
		if !ok {
			break // free list empty: spin on allocation
		}
		p.node = idx
		s.Nodes[idx].Value = p.Ops[p.cur].Value
		p.pc = msEnqReadTail
	case msEnqReadTail:
		p.tail = s.Tail
		p.pc = msEnqReadNext
	case msEnqReadNext:
		p.next = s.Nodes[p.tail.Idx].Next
		p.pc = msEnqCheck
	case msEnqCheck:
		switch {
		case s.Tail != p.tail:
			p.pc = msEnqReadTail
		case p.next.IsNil():
			p.pc = msEnqCASNext
		default:
			p.pc = msEnqHelp
		}
	case msEnqCASNext:
		if s.casNext(p.tail.Idx, p.next, Ref{Idx: p.node, Cnt: p.next.Cnt + 1}) {
			p.pc = msEnqSwing
		} else {
			p.pc = msEnqReadTail
		}
	case msEnqHelp:
		s.casTail(p.tail, Ref{Idx: p.next.Idx, Cnt: p.tail.Cnt + 1}, true)
		p.pc = msEnqReadTail
	case msEnqSwing:
		s.casTail(p.tail, Ref{Idx: p.node, Cnt: p.tail.Cnt + 1}, true)
		p.complete(s, linearizability.Enq, p.Ops[p.cur].Value, now)

	// --- MS dequeue (Figure 1, lines D1–D15) ---
	case msDeqReadHead:
		p.head = s.Head
		p.pc = msDeqReadTail
	case msDeqReadTail:
		p.tail = s.Tail
		p.pc = msDeqReadNext
	case msDeqReadNext:
		p.next = s.Nodes[p.head.Idx].Next
		p.pc = msDeqCheck
	case msDeqCheck:
		switch {
		case s.Head != p.head:
			p.pc = msDeqReadHead
		case p.head.Idx == p.tail.Idx && p.next.IsNil():
			p.complete(s, linearizability.DeqEmpty, 0, now)
		case p.head.Idx == p.tail.Idx:
			p.pc = msDeqHelp
		default:
			p.pc = msDeqReadValue
		}
	case msDeqHelp:
		s.casTail(p.tail, Ref{Idx: p.next.Idx, Cnt: p.tail.Cnt + 1}, true)
		p.pc = msDeqReadHead
	case msDeqReadValue:
		p.value = s.Nodes[p.next.Idx].Value
		p.pc = msDeqCASHead
	case msDeqCASHead:
		if s.casHead(p.head, Ref{Idx: p.next.Idx, Cnt: p.head.Cnt + 1}, true) {
			p.pc = msDeqFree
		} else {
			p.pc = msDeqReadHead
		}
	case msDeqFree:
		s.freeNode(p.head.Idx)
		p.complete(s, linearizability.Deq, p.value, now)

	// --- Stone 1990: swing Tail with a counter-less CAS, then link ---
	case stEnqAlloc:
		idx, ok := s.alloc()
		if !ok {
			break
		}
		p.node = idx
		s.Nodes[idx].Value = p.Ops[p.cur].Value
		p.pc = stEnqReadTail
	case stEnqReadTail:
		p.tail = s.Tail
		p.pc = stEnqCASTail
	case stEnqCASTail:
		if s.casTail(p.tail, Ref{Idx: p.node}, false) {
			p.pc = stEnqLink
		} else {
			p.pc = stEnqReadTail
		}
	case stEnqLink:
		s.setNext(p.tail.Idx, Ref{Idx: p.node})
		p.complete(s, linearizability.Enq, p.Ops[p.cur].Value, now)

	case stDeqReadHead:
		p.head = s.Head
		p.pc = stDeqReadNext
	case stDeqReadNext:
		p.next = s.Nodes[p.head.Idx].Next
		if p.next.IsNil() {
			// Stone reports empty whenever the visible prefix ends — the
			// non-linearizable answer past an unlinked suffix.
			p.complete(s, linearizability.DeqEmpty, 0, now)
			break
		}
		p.pc = stDeqReadValue
	case stDeqReadValue:
		p.value = s.Nodes[p.next.Idx].Value
		p.pc = stDeqCASHead
	case stDeqCASHead:
		if s.casHead(p.head, Ref{Idx: p.next.Idx}, false) {
			s.freeNode(p.head.Idx) // merged with the CAS event for brevity
			p.complete(s, linearizability.Deq, p.value, now)
		} else {
			p.pc = stDeqReadHead
		}

	// --- Mellor-Crummey: fetch_and_store then link; no reclamation ---
	case mcEnqAlloc:
		idx, ok := s.alloc()
		if !ok {
			break
		}
		p.node = idx
		s.Nodes[idx].Value = p.Ops[p.cur].Value
		p.pc = mcEnqSwap
	case mcEnqSwap:
		p.prev = s.swapTail(Ref{Idx: p.node})
		p.pc = mcEnqLink
	case mcEnqLink:
		s.setNext(p.prev.Idx, Ref{Idx: p.node})
		p.complete(s, linearizability.Enq, p.Ops[p.cur].Value, now)

	case mcDeqReadHead:
		p.head = s.Head
		p.pc = mcDeqReadNext
	case mcDeqReadNext:
		p.next = s.Nodes[p.head.Idx].Next
		if p.next.IsNil() {
			p.pc = mcDeqCheckTail
		} else {
			p.pc = mcDeqReadValue
		}
	case mcDeqCheckTail:
		if sameNode(s.Tail, p.head) {
			p.complete(s, linearizability.DeqEmpty, 0, now)
		} else {
			// A claimed-but-unlinked suffix: nothing to do but re-read.
			// This is the wait loop that makes the algorithm blocking.
			p.pc = mcDeqReadHead
		}
	case mcDeqReadValue:
		p.value = s.Nodes[p.next.Idx].Value
		p.pc = mcDeqCASHead
	case mcDeqCASHead:
		if s.casHead(p.head, Ref{Idx: p.next.Idx}, true) {
			p.complete(s, linearizability.Deq, p.value, now)
		} else {
			p.pc = mcDeqReadHead
		}

	// --- Two-lock queue (Figure 2): separate head and tail locks ---
	case tlEnqAlloc:
		idx, ok := s.alloc()
		if !ok {
			break
		}
		p.node = idx
		s.Nodes[idx].Value = p.Ops[p.cur].Value
		p.pc = tlEnqLock
	case tlEnqLock:
		if s.tryLock(&s.TLock) {
			p.pc = tlEnqReadTail
		}
		// On failure the pc stays here: a spin step. A process stalled
		// while holding the lock parks us — the blocking signature.
	case tlEnqReadTail:
		p.tail = s.Tail
		p.pc = tlEnqLink
	case tlEnqLink:
		// This write races only the head-side emptiness probe (the word is
		// otherwise tail-lock-protected), which is why the implementation
		// makes the next field atomic.
		s.setNext(p.tail.Idx, Ref{Idx: p.node})
		p.pc = tlEnqSwing
	case tlEnqSwing:
		s.setTail(Ref{Idx: p.node})
		p.pc = tlEnqUnlock
	case tlEnqUnlock:
		s.unlock(&s.TLock)
		p.complete(s, linearizability.Enq, p.Ops[p.cur].Value, now)

	case tlDeqLock:
		if s.tryLock(&s.HLock) {
			p.pc = tlDeqReadHead
		}
	case tlDeqReadHead:
		p.head = s.Head
		p.pc = tlDeqReadNext
	case tlDeqReadNext:
		p.next = s.Nodes[p.head.Idx].Next
		if p.next.IsNil() {
			p.pc = tlDeqEmptyUnlock
		} else {
			p.pc = tlDeqReadValue
		}
	case tlDeqEmptyUnlock:
		s.unlock(&s.HLock)
		p.complete(s, linearizability.DeqEmpty, 0, now)
	case tlDeqReadValue:
		p.value = s.Nodes[p.next.Idx].Value
		p.pc = tlDeqSwing
	case tlDeqSwing:
		s.setHead(Ref{Idx: p.next.Idx})
		p.pc = tlDeqUnlock
	case tlDeqUnlock:
		s.unlock(&s.HLock)
		p.pc = tlDeqFree
	case tlDeqFree:
		s.freeNode(p.head.Idx)
		p.complete(s, linearizability.Deq, p.value, now)

	default:
		panic(fmt.Sprintf("explore: process %d at impossible pc %d", p.ID, p.pc))
	}

	return s.Version != versionBefore
}

// complete records the finished operation and advances the script.
func (p *Proc) complete(s *State, kind linearizability.Kind, value int, now int64) {
	// Invoke is the clock of the operation's first event and Return that of
	// its last; the clock is globally unique per event and every operation
	// spans at least two events, so Invoke < Return strictly and no two
	// operations share an endpoint.
	if s.NoHistory {
		p.cur++
		p.pc = pcIdle
		return
	}
	s.History = append(s.History, linearizability.Op{
		Process: p.ID,
		Kind:    kind,
		Value:   value,
		Invoke:  p.invoked,
		Return:  now,
	})
	p.cur++
	p.pc = pcIdle
}

// InitQueue allocates the dummy node and points Head and Tail at it, as
// every modelled algorithm's initialize() does. It must run before any
// process steps and does not count as an event.
func InitQueue(s *State) {
	idx, ok := s.alloc()
	if !ok {
		panic("explore: arena too small for the dummy node")
	}
	s.Head = Ref{Idx: idx}
	s.Tail = Ref{Idx: idx}
}
