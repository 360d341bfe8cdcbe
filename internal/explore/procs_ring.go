package explore

import (
	"fmt"

	"msqueue/internal/linearizability"
)

// AlgoRing models internal/ring's inner indexQueue — the SCQ slot protocol
// that all of the package's liveness and safety claims live in: FAA
// position reservation, the per-slot cycle CAS, the dequeuer's lag-advance
// (cycle bump on an empty slot, unsafe flag on an occupied one), the tail
// catch-up swing, and threshold-bounded emptiness.
//
// The model carries the scripted values directly in the slot's index field
// rather than composing two rings through a data array the way Ring[T]
// does: the fq/aq pair are two *independent* instances of this protocol,
// and an index is owned by exactly one process between the rings, so the
// composition adds no interleavings the single ring does not already have.
//
// Abstractions, each mirrored from the real code's atomicity:
//   - FAA is one event (it is one instruction); the reserve cannot fail.
//   - The enqueuer's claimability check is one event reading the loaded
//     slot word and Head (the real code loads Head only when the unsafe
//     flag is set, and so does the model).
//   - A failed catch-up CAS and the two reloads that follow it are one
//     event, as are the real threshold reset's load+store pair.
//
// Scripts must keep the live population within Capacity (half the slot
// count): Ring[T]'s free ring enforces that bound in the real composition,
// and SCQ's bounded-claim argument — hence enqueue termination — depends
// on it.
const AlgoRing Algo = 300

// Program counters of the ring machine.
const (
	rqEnqFAATail pc = 300 + iota
	rqEnqLoadSlot
	rqEnqCheck
	rqEnqCASSlot
	rqEnqResetThresh

	rqDeqThresh
	rqDeqEmptyFast
	rqDeqFAAHead
	rqDeqLoadSlot
	rqDeqCheck
	rqDeqCASConsume
	rqDeqCASAdvance
	rqDeqLoadTail
	rqDeqEmptyCheck
	rqDeqCatchup
	rqDeqSpendEmpty
	rqDeqSpendRetry
)

// Slot packing, copied from internal/ring so the model fails the same way
// the real words would (same field widths, same wrap behaviour).
const (
	ridxBits    = 31
	ridxMask    = 1<<ridxBits - 1
	runsafeFlag = 1 << ridxBits
	rnilIdx     = int32(-1)
)

func rpackSlot(cycle uint32, unsafeBit uint64, idx int32) uint64 {
	return uint64(cycle)<<32 | unsafeBit | uint64(uint32(idx+1))&ridxMask
}

func rslotCycle(s uint64) uint32  { return uint32(s >> 32) }
func rslotIndex(s uint64) int32   { return int32(uint32(s)&ridxMask) - 1 }
func rslotUnsafe(s uint64) uint64 { return s & runsafeFlag }

// rcycleLess is cycleLess: a < b in wrap-aware 32-bit modular order.
func rcycleLess(a, b uint32) bool { return int32(b-a) > 0 }

// posCycle and remap of the modelled ring (identity remap: model rings are
// small, and the real indexQueue keeps the identity map for order <= 4).
func (r *RingState) posCycle(pos uint64) uint32 { return uint32(pos >> r.Order) }
func (r *RingState) remap(pos uint64) uint64 {
	i := pos & (uint64(len(r.Slots)) - 1)
	if r.Order <= 4 {
		return i
	}
	return i>>4 | (i&15)<<(r.Order-4)
}

// stepRing executes one event of the ring machine.
func (p *Proc) stepRing(s *State, now int64) {
	r := s.Ring
	switch p.pc {
	// --- enqueue: indexQueue.enqueue with the value as the entry ---
	case rqEnqFAATail:
		p.rpos = r.Tail
		r.Tail++
		s.wrote()
		p.pc = rqEnqLoadSlot
	case rqEnqLoadSlot:
		p.rslot = r.Slots[r.remap(p.rpos)]
		p.pc = rqEnqCheck
	case rqEnqCheck:
		tc := r.posCycle(p.rpos)
		if rcycleLess(rslotCycle(p.rslot), tc) && rslotIndex(p.rslot) == rnilIdx &&
			(rslotUnsafe(p.rslot) == 0 || r.Head <= p.rpos) {
			p.pc = rqEnqCASSlot
		} else {
			// Position unusable: burn it, reserve the next.
			p.pc = rqEnqFAATail
		}
	case rqEnqCASSlot:
		j := r.remap(p.rpos)
		if r.Slots[j] == p.rslot {
			r.Slots[j] = rpackSlot(r.posCycle(p.rpos), 0, int32(p.Ops[p.cur].Value))
			s.wrote()
			p.pc = rqEnqResetThresh
		} else {
			p.pc = rqEnqLoadSlot // slot changed under us; re-examine it
		}
	case rqEnqResetThresh:
		// The real reset is a load and, when stale, a plain store; the
		// interleavings between them only re-store the same constant, so
		// one event loses nothing.
		if r.Thresh != r.ThreshMax {
			r.Thresh = r.ThreshMax
			s.wrote()
		}
		p.complete(s, linearizability.Enq, p.Ops[p.cur].Value, now)

	// --- dequeue: indexQueue.dequeue ---
	case rqDeqThresh:
		if r.Thresh < 0 {
			// Observed empty with nothing enqueued since. The return is a
			// separate event only so the operation's history interval is
			// non-empty; the threshold read is the linearization point.
			p.pc = rqDeqEmptyFast
		} else {
			p.pc = rqDeqFAAHead
		}
	case rqDeqEmptyFast:
		p.complete(s, linearizability.DeqEmpty, 0, now)
	case rqDeqFAAHead:
		p.rpos = r.Head
		r.Head++
		s.wrote()
		p.pc = rqDeqLoadSlot
	case rqDeqLoadSlot:
		p.rslot = r.Slots[r.remap(p.rpos)]
		p.pc = rqDeqCheck
	case rqDeqCheck:
		hc := r.posCycle(p.rpos)
		switch {
		case rslotCycle(p.rslot) == hc && rslotIndex(p.rslot) != rnilIdx:
			p.pc = rqDeqCASConsume
		case rcycleLess(rslotCycle(p.rslot), hc):
			p.pc = rqDeqCASAdvance
		default:
			// A later lap already owns the slot; fall through to the empty
			// check for our position.
			p.pc = rqDeqLoadTail
		}
	case rqDeqCASConsume:
		j := r.remap(p.rpos)
		if r.Slots[j] == p.rslot {
			r.Slots[j] = p.rslot &^ uint64(ridxMask)
			s.wrote()
			p.value = int(rslotIndex(p.rslot))
			p.complete(s, linearizability.Deq, p.value, now)
		} else {
			p.pc = rqDeqLoadSlot // goto again: cycle still ours, entry still ours
		}
	case rqDeqCASAdvance:
		// The slot lags our lap: bump an empty slot's cycle so the slow
		// enqueuer's claim fails, or mark an occupied one unsafe so its
		// entry survives for its own lap's dequeuer.
		j := r.remap(p.rpos)
		if r.Slots[j] == p.rslot {
			if rslotIndex(p.rslot) == rnilIdx {
				r.Slots[j] = rpackSlot(r.posCycle(p.rpos), rslotUnsafe(p.rslot), rnilIdx)
			} else {
				r.Slots[j] = p.rslot | runsafeFlag
			}
			s.wrote()
			p.pc = rqDeqLoadTail
		} else {
			p.pc = rqDeqLoadSlot // goto again
		}
	case rqDeqLoadTail:
		p.rtail = r.Tail
		p.pc = rqDeqEmptyCheck
	case rqDeqEmptyCheck:
		if p.rtail <= p.rpos+1 {
			p.rslot = p.rpos + 1 // catch-up target (slot word no longer needed)
			p.pc = rqDeqCatchup
		} else {
			p.pc = rqDeqSpendRetry
		}
	case rqDeqCatchup:
		// One catchup loop iteration. A failed CAS reloads both counters
		// (merged into this event, as in indexQueue.catchup's retry).
		switch {
		case p.rtail >= p.rslot:
			p.pc = rqDeqSpendEmpty // someone else moved Tail far enough
		case r.Tail == p.rtail:
			r.Tail = p.rslot
			s.wrote()
			p.pc = rqDeqSpendEmpty
		default:
			p.rslot = r.Head
			p.rtail = r.Tail
		}
	case rqDeqSpendEmpty:
		r.Thresh--
		s.wrote()
		p.complete(s, linearizability.DeqEmpty, 0, now)
	case rqDeqSpendRetry:
		r.Thresh--
		s.wrote()
		if r.Thresh <= -1 {
			p.complete(s, linearizability.DeqEmpty, 0, now)
			break
		}
		p.pc = rqDeqFAAHead

	default:
		panic(fmt.Sprintf("explore: ring process %d at impossible pc %d", p.ID, p.pc))
	}
}

// CheckRingInvariants holds in every reachable ring state:
//
//   - occupancy stays within capacity (half the slots) — the bound Ring[T]'s
//     free ring enforces and SCQ's enqueue-termination argument needs;
//   - Head and Tail never retreat below their initial lap;
//   - the threshold never exceeds its maximum;
//   - no slot's cycle runs ahead of the laps the counters have reached.
//
// Wire it through Config.CheckInvariants.
func CheckRingInvariants(s *State) error {
	r := s.Ring
	size := uint64(len(r.Slots))
	if r.Head < size || r.Tail < size {
		return fmt.Errorf("ring: counter retreated below the initial lap (head %d, tail %d, size %d)", r.Head, r.Tail, size)
	}
	if r.Thresh > r.ThreshMax {
		return fmt.Errorf("ring: threshold %d above maximum %d", r.Thresh, r.ThreshMax)
	}
	occupied := 0
	maxCycle := r.posCycle(r.Tail) + 1
	for j, w := range r.Slots {
		if rslotIndex(w) != rnilIdx {
			occupied++
		}
		if c := rslotCycle(w); rcycleLess(maxCycle, c) && rcycleLess(r.posCycle(r.Head)+1, c) {
			return fmt.Errorf("ring: slot %d at cycle %d ahead of both counters (head %d, tail %d)", j, c, r.Head, r.Tail)
		}
	}
	if occupied > int(size)/2 {
		return fmt.Errorf("ring: %d occupied slots in a %d-slot ring (capacity %d)", occupied, size, size/2)
	}
	return nil
}

// InitRingQueue prepares an empty modelled ring of 1<<order slots
// (capacity 1<<(order-1)), mirroring indexQueue.init with prefill 0: both
// counters start one full lap in, and the threshold starts negative — the
// "observed empty, nothing enqueued since" state.
func InitRingQueue(s *State, order uint) {
	size := uint64(1) << order
	s.Ring = &RingState{
		Order:     order,
		Slots:     make([]uint64, size),
		Head:      size,
		Tail:      size,
		Thresh:    -1,
		ThreshMax: 3*int64(size)/2 - 1,
	}
}
