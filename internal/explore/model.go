// Package explore is a bounded model checker for the queue algorithms: it
// searches every interleaving of a small workload at the granularity of
// individual shared-memory events (reads, writes, compare_and_swaps),
// visiting each distinct state (and, when checking histories, each distinct
// order of history endpoints) once, and checks, mechanically, the claims of
// the paper's section 3:
//
//   - safety — the five structural invariants of section 3.1 hold in every
//     reachable state of the MS queue (list connected; insert only at the
//     end; delete only from the beginning; Head first; Tail in list);
//   - linearizability (section 3.2) — every distinct complete history is
//     accepted by the exact checker in internal/linearizability;
//   - liveness (section 3.3) — the MS queue is non-blocking: in no
//     reachable state is every unfinished process stuck in a read-only
//     retry loop. For the blocking comparators (Mellor-Crummey's swap-link
//     queue, and Stone's) the explorer *finds* the blocked states and the
//     non-linearizable schedules the paper reports.
//
// The model mirrors internal/core's tagged implementation: nodes live in a
// small arena addressed by (index, counter) references and recycle through
// a free list, so the ABA interactions with reuse are part of the explored
// state space. One abstraction is applied for tractability: free-list pop
// and push are single atomic events rather than Treiber CAS loops (their
// lock-freedom is checked separately by internal/arena's tests).
package explore

import (
	"fmt"
	"strings"

	"msqueue/internal/linearizability"
)

// Ref is a tagged reference in the model: a node index (-1 for null) and a
// modification counter.
type Ref struct {
	Idx int32
	Cnt uint32
}

// NilRef is the null reference with counter zero.
var NilRef = Ref{Idx: -1}

// IsNil reports whether the reference is null (any counter).
func (r Ref) IsNil() bool { return r.Idx < 0 }

// String formats the reference like the arena package does.
func (r Ref) String() string {
	if r.IsNil() {
		return fmt.Sprintf("<nil,%d>", r.Cnt)
	}
	return fmt.Sprintf("<%d,%d>", r.Idx, r.Cnt)
}

// sameNode reports index equality, the comparison a counter-less CAS does.
func sameNode(a, b Ref) bool { return a.Idx == b.Idx }

// Node is one arena slot. Refct is Valois's per-node reference counter,
// used only by the AlgoValois machine (zero elsewhere).
type Node struct {
	Value int
	Next  Ref
	Refct int
}

// State is the complete shared memory of the model, plus the bookkeeping
// the explorer needs: a version stamp (bumped by every write) and the
// history of completed operations with event-time intervals.
type State struct {
	Nodes []Node
	Free  []int32 // free-list stack; top is the last element
	Head  Ref
	Tail  Ref

	// HLock and TLock are the two-lock algorithm's test_and_set words;
	// unused (false) by the other machines.
	HLock bool
	TLock bool

	// Epoch is the epoch-reclamation machine's shared state (AlgoEpoch and
	// AlgoEpochPinKeyed only; nil elsewhere). Ring is the SCQ-style cycle
	// machine's (AlgoRing only; nil elsewhere).
	Epoch *EpochState
	Ring  *RingState

	Version uint64 // bumped on every shared-memory write
	Clock   int64  // bumped on every event; history interval endpoints

	// NoHistory suppresses history recording (graph mode, where histories
	// are not checked and would bloat the memoised states).
	NoHistory bool
	History   []linearizability.Op
}

// EpochState models internal/epoch's Domain: one global epoch word plus a
// per-process participant record (a pin word and three limbo buckets). The
// model skips participant pooling — process i always uses Parts[i] — since
// pooling only redistributes which record a pin lands on.
type EpochState struct {
	// Global is the current epoch (the Domain's d.global word).
	Global uint64
	// Parts holds one participant per process.
	Parts []EpochPart
	// PinKeyed selects the PR-7 bug: limbo buckets keyed by the retirer's
	// pin epoch instead of the global epoch observed at retire time.
	PinKeyed bool
}

// EpochPart is one participant: the published pin word (epoch<<1|1) and
// the three limbo generations.
type EpochPart struct {
	Pin   uint64
	Limbo [3]EpochBucket
}

// EpochBucket is one limbo generation: nodes retired while the bucket's
// keying epoch was Epoch.
type EpochBucket struct {
	Epoch   uint64
	Handles []int32
}

// clone deep-copies the epoch state.
func (e *EpochState) clone() *EpochState {
	c := &EpochState{Global: e.Global, PinKeyed: e.PinKeyed, Parts: make([]EpochPart, len(e.Parts))}
	for i := range e.Parts {
		c.Parts[i].Pin = e.Parts[i].Pin
		for j := range e.Parts[i].Limbo {
			b := e.Parts[i].Limbo[j]
			c.Parts[i].Limbo[j] = EpochBucket{Epoch: b.Epoch, Handles: append([]int32(nil), b.Handles...)}
		}
	}
	return c
}

// RingState models one of internal/ring's indexQueues carrying the script
// values directly in the slot index field (the outer Ring's fq/aq pairing
// only moves values out of the CAS word; the protocol under test — cycle
// CAS, catch-up, threshold — lives entirely in the inner ring).
type RingState struct {
	// Order is log2 of the slot count. The model always uses the identity
	// remap (the real ring's cache remap is a bijection that only matters
	// for orders > 4).
	Order uint
	// Slots holds the packed cycle|unsafe|index+1 words.
	Slots []uint64
	// Head and Tail are the FAA reservation counters; Thresh is the
	// emptiness-detection token counter with its reset ceiling ThreshMax.
	Head, Tail uint64
	Thresh     int64
	ThreshMax  int64
}

// clone deep-copies the ring state.
func (r *RingState) clone() *RingState {
	c := *r
	c.Slots = append([]uint64(nil), r.Slots...)
	return &c
}

// NewState builds an arena of n nodes, all free, with Head and Tail nil;
// algorithm-specific initialisation (the dummy node) is done by the
// process machinery in procs.go.
func NewState(n int) *State {
	s := &State{Nodes: make([]Node, n), Free: make([]int32, 0, n)}
	// Stack the free list so index 0 is allocated first, matching the
	// Treiber arena's initial order.
	for i := n - 1; i >= 0; i-- {
		s.Free = append(s.Free, int32(i))
	}
	return s
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{
		Nodes:     append([]Node(nil), s.Nodes...),
		Free:      append([]int32(nil), s.Free...),
		Head:      s.Head,
		Tail:      s.Tail,
		HLock:     s.HLock,
		TLock:     s.TLock,
		Version:   s.Version,
		Clock:     s.Clock,
		NoHistory: s.NoHistory,
	}
	if s.Epoch != nil {
		c.Epoch = s.Epoch.clone()
	}
	if s.Ring != nil {
		c.Ring = s.Ring.clone()
	}
	if !s.NoHistory {
		c.History = append([]linearizability.Op(nil), s.History...)
	}
	return c
}

// tick advances the event clock; every process step calls it exactly once.
func (s *State) tick() int64 {
	s.Clock++
	return s.Clock
}

// wrote marks a shared-memory mutation.
func (s *State) wrote() { s.Version++ }

// alloc pops a node from the free list (one atomic event). The node's next
// is reset to null with its counter advanced, as arena.Alloc does.
func (s *State) alloc() (int32, bool) {
	if len(s.Free) == 0 {
		return -1, false
	}
	idx := s.Free[len(s.Free)-1]
	s.Free = s.Free[:len(s.Free)-1]
	n := &s.Nodes[idx]
	n.Next = Ref{Idx: -1, Cnt: n.Next.Cnt + 1}
	s.wrote()
	return idx, true
}

// freeNode pushes a node back on the free list (one atomic event).
func (s *State) freeNode(idx int32) {
	s.Free = append(s.Free, idx)
	s.wrote()
}

// isFree reports whether the node is on the free list; used by invariant
// checks only.
func (s *State) isFree(idx int32) bool {
	for _, f := range s.Free {
		if f == idx {
			return true
		}
	}
	return false
}

// casNext performs CAS on a node's next word, counters included.
func (s *State) casNext(idx int32, old, new Ref) bool {
	if s.Nodes[idx].Next != old {
		return false
	}
	s.Nodes[idx].Next = new
	s.wrote()
	return true
}

// setNext is an unconditional store to a node's next word, advancing its
// counter (used by the swap-then-link algorithms whose link is a plain
// store).
func (s *State) setNext(idx int32, to Ref) {
	s.Nodes[idx].Next = Ref{Idx: to.Idx, Cnt: s.Nodes[idx].Next.Cnt + 1}
	s.wrote()
}

// casHead performs CAS on Head. When counted is false the comparison
// ignores the counter — the configuration in which Stone's queue loses
// items.
func (s *State) casHead(old, new Ref, counted bool) bool {
	if counted && s.Head != old {
		return false
	}
	if !counted && !sameNode(s.Head, old) {
		return false
	}
	s.Head = new
	s.wrote()
	return true
}

// casTail is casHead for the Tail word.
func (s *State) casTail(old, new Ref, counted bool) bool {
	if counted && s.Tail != old {
		return false
	}
	if !counted && !sameNode(s.Tail, old) {
		return false
	}
	s.Tail = new
	s.wrote()
	return true
}

// tryLock is test_and_set on one of the two lock words: a read that finds
// the lock held changes nothing (a spin step); a successful acquisition is
// a write.
func (s *State) tryLock(word *bool) bool {
	if *word {
		return false
	}
	*word = true
	s.wrote()
	return true
}

// unlock releases a lock word.
func (s *State) unlock(word *bool) {
	*word = false
	s.wrote()
}

// setHead is the two-lock dequeue's plain store to Head under the head
// lock, advancing the counter like every other word write.
func (s *State) setHead(to Ref) {
	s.Head = Ref{Idx: to.Idx, Cnt: s.Head.Cnt + 1}
	s.wrote()
}

// setTail is the two-lock enqueue's plain store to Tail under the tail
// lock.
func (s *State) setTail(to Ref) {
	s.Tail = Ref{Idx: to.Idx, Cnt: s.Tail.Cnt + 1}
	s.wrote()
}

// swapTail is fetch_and_store on Tail (Mellor-Crummey's enqueue claim).
func (s *State) swapTail(new Ref) Ref {
	old := s.Tail
	s.Tail = new
	s.wrote()
	return old
}

// key serialises the shared state (not the history or clocks) for cycle
// detection and diagnostics.
func (s *State) key() string {
	var b strings.Builder
	for i := range s.Nodes {
		fmt.Fprintf(&b, "%d:%v:%d;", s.Nodes[i].Value, s.Nodes[i].Next, s.Nodes[i].Refct)
	}
	fmt.Fprintf(&b, "F%v|H%v|T%v|L%v%v", s.Free, s.Head, s.Tail, s.HLock, s.TLock)
	if s.Epoch != nil {
		fmt.Fprintf(&b, "|G%d", s.Epoch.Global)
		for i := range s.Epoch.Parts {
			p := &s.Epoch.Parts[i]
			fmt.Fprintf(&b, "|p%d:%d", i, p.Pin)
			for j := range p.Limbo {
				fmt.Fprintf(&b, "(%d:%v)", p.Limbo[j].Epoch, p.Limbo[j].Handles)
			}
		}
	}
	if s.Ring != nil {
		fmt.Fprintf(&b, "|R%v h%d t%d th%d", s.Ring.Slots, s.Ring.Head, s.Ring.Tail, s.Ring.Thresh)
	}
	return b.String()
}

// CheckMSInvariants verifies the safety properties of the paper's section
// 3.1 on a model state of the MS queue. It returns a descriptive error on
// the first violated property.
func CheckMSInvariants(s *State) error {
	// Property 4: Head always points to the first node in the linked list.
	// In the model this means Head is a valid, non-free node.
	if s.Head.IsNil() {
		return fmt.Errorf("property 4: Head is null")
	}
	if s.isFree(s.Head.Idx) {
		return fmt.Errorf("property 4: Head %v points to a free node", s.Head)
	}

	// Property 1: the linked list is always connected: walking from Head
	// terminates at a null next within the arena size (no cycles), and no
	// node on the walk is simultaneously on the free list.
	chain := map[int32]bool{}
	idx := s.Head.Idx
	for hops := 0; ; hops++ {
		if hops > len(s.Nodes) {
			return fmt.Errorf("property 1: list from Head does not terminate (cycle)")
		}
		if chain[idx] {
			return fmt.Errorf("property 1: node %d appears twice in the list", idx)
		}
		chain[idx] = true
		if s.isFree(idx) {
			return fmt.Errorf("property 1: list node %d is on the free list", idx)
		}
		next := s.Nodes[idx].Next
		if next.IsNil() {
			break
		}
		idx = next.Idx
	}

	// Property 5: Tail always points to a node in the linked list (it never
	// lags behind Head, so it can never point to a deleted node).
	if s.Tail.IsNil() {
		return fmt.Errorf("property 5: Tail is null")
	}
	if !chain[s.Tail.Idx] {
		return fmt.Errorf("property 5: Tail %v not reachable from Head %v", s.Tail, s.Head)
	}

	// Properties 2 and 3 (insert only after the last node, delete only from
	// the beginning) are trajectory properties; they are enforced by the
	// step functions' structure and validated behaviourally by the
	// linearizability check on every complete interleaving.
	return nil
}
