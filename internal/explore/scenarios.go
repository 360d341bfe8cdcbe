package explore

// Scenario is one row of the model-checking table: a workload, the verdict
// the paper (or, past the paper, the repository's design) predicts for it,
// and the exact size of its search. cmd/qmodel prints the table and the
// package's table test asserts every row.
type Scenario struct {
	// Name is "<algo>/<mode>/<workload>"; qmodel's -algo filter matches
	// the algo part.
	Name   string
	Config Config
	// Expect is the predicted verdict: "clean", "races" or "blocking"
	// (see Classify).
	Expect  string
	Summary string
	// States and Events are the Result.Paths and Result.Events the search
	// reports. The search is deterministic, so they pin the memo: a change
	// to what a memo key remembers changes them.
	States, Events int
	// Kind, for a "races" row, is the violation kind the search must find;
	// Detail, when set, is text one such violation's Detail must contain.
	Kind, Detail string
}

// Workloads shared by several rows.
var (
	twoProcPairs = [][]OpSpec{
		{Enq(1), Deq()},
		{Enq(2)},
	}
	slowDequeuer = [][]OpSpec{
		{Deq()},
		{Enq(1), Deq(), Enq(2), Deq()},
	}
	enqVsDeq = [][]OpSpec{
		{Enq(1)},
		{Deq()},
	}
	// stalePin is the workload that separates the two limbo keyings. Three
	// enqueues feed three retires: P0's first dequeue retires the original
	// dummy and advances the global epoch from 0 to 1 past P1, which pinned
	// at 0 before the advance; P1's first dequeue then retires node A under
	// that stale pin — bucket keyed 0 if pin-keyed, 1 (the global observed
	// at retire time) if shipped; P0's second dequeue pins at 1 and reads
	// Head = A just before P1 unlinks it; P1's second dequeue retires B,
	// advances 1 -> 2 (P0's pin at 1 does not block an advance *from* 1),
	// and flushes its own limbo. At global 2 the pin-keyed bucket (epoch 0)
	// is past the two-epoch horizon and frees A while P0 still holds it;
	// the shipped bucket (epoch 1) needs global 3, which P0's pin blocks.
	stalePin = [][]OpSpec{
		{Deq(), Deq()},
		{Enq(1), Enq(2), Enq(3), Deq(), Deq()},
	}
)

// Scenarios is the model-checking suite, in the order qmodel -algo all
// prints it. The expected verdicts mirror the paper: the MS queue is clean
// everywhere, the two-lock queue is correct but blocking, Stone's queue is
// non-linearizable and loses items through the counter-less ABA, and
// Mellor-Crummey's queue blocks dequeuers behind a stalled enqueuer. The
// Valois, epoch and ring machines extend the suite past the paper to the
// repository's reclamation and bounded-queue layers, including the
// pin-keyed limbo variant (AlgoEpochPinKeyed) as a deliberately dirty
// specimen.
var Scenarios = []Scenario{
	{
		Name: "ms/paths/pair-vs-enq", Expect: "clean", States: 1939, Events: 3230,
		Summary: "all interleavings linearizable, invariants hold, never blocks",
		Config:  Config{Algo: AlgoMS, Scripts: twoProcPairs, ArenaSize: 4, CheckInvariants: CheckMSInvariants},
	},
	{
		Name: "ms/graph/three-procs", Expect: "clean", States: 56131, Events: 121904,
		Summary: "section 3.1 invariants in every reachable state",
		Config:  Config{Algo: AlgoMS, Mode: ModeGraph, Scripts: [][]OpSpec{{Enq(1)}, {Enq(2)}, {Deq(), Deq()}}, ArenaSize: 4, CheckInvariants: CheckMSInvariants},
	},
	{
		// A 3-node arena: every enqueue after the first reuses a just-freed
		// node, maximising ABA pressure on the counters.
		Name: "ms/graph/tiny-arena-reuse", Expect: "clean", States: 37344, Events: 65250,
		Summary: "ABA pressure via immediate node reuse; counters hold",
		Config:  Config{Algo: AlgoMS, Mode: ModeGraph, Scripts: [][]OpSpec{{Enq(1), Deq(), Enq(3), Deq()}, {Enq(2), Deq()}}, ArenaSize: 3, CheckInvariants: CheckMSInvariants},
	},
	{
		// The workload of stone/paths/slow-dequeuer-aba: the counters keep
		// Head from ever being redirected onto a free node, which is what
		// Stone's stale CAS does.
		Name: "ms/graph/slow-dequeuer", Expect: "clean", States: 6524, Events: 11697,
		Summary: "the schedule that breaks Stone cannot corrupt MS",
		Config:  Config{Algo: AlgoMS, Mode: ModeGraph, Scripts: slowDequeuer, ArenaSize: 3, CheckInvariants: CheckMSInvariants},
	},
	{
		// The workload of mc/paths/enq-vs-deq, which parks under MC.
		Name: "ms/paths/enq-vs-deq", Expect: "clean", States: 205, Events: 277,
		Summary: "no parked states: the dequeuer never waits on the enqueuer",
		Config:  Config{Algo: AlgoMS, Scripts: enqVsDeq, ArenaSize: 3, CheckInvariants: CheckMSInvariants},
	},
	{
		// Both locks are modelled, and no operation takes both, so waiters
		// park but nothing deadlocks.
		Name: "two-lock/paths/pair-vs-enq", Expect: "blocking", States: 957, Events: 1646,
		Summary: "correct and deadlock-free, but waiters park behind a stalled lock holder",
		Config:  Config{Algo: AlgoTwoLock, Scripts: twoProcPairs, ArenaSize: 4, CheckInvariants: CheckTwoLockInvariants},
	},
	{
		Name: "two-lock/graph/three-procs", Expect: "blocking", States: 35836, Events: 94215,
		Summary: "section 3.1 invariants (with the tail-lock caveat) in every state; no deadlock",
		Config: Config{
			Algo: AlgoTwoLock, Mode: ModeGraph,
			Scripts:         [][]OpSpec{{Enq(1), Deq()}, {Enq(2)}, {Deq()}},
			ArenaSize:       4,
			CheckInvariants: CheckTwoLockInvariants,
		},
	},
	{
		Name: "valois/paths/enq-vs-deq", Expect: "clean", States: 1380, Events: 2410,
		Summary: "SafeRead and the release cascade: every history linearizable, ledger balanced",
		Config:  Config{Algo: AlgoValois, Scripts: enqVsDeq, ArenaSize: 3, CheckLedger: CheckValoisLedger},
	},
	{
		// Every node's counter equals its structural references plus the
		// references each process holds, and free nodes count zero: one
		// lost or duplicated increment anywhere fails it.
		Name: "valois/graph/refcount-ledger", Expect: "clean", States: 80659, Events: 153390,
		Summary: "reference-count ledger balanced in every reachable state; non-blocking",
		Config: Config{
			Algo: AlgoValois, Mode: ModeGraph,
			Scripts:     [][]OpSpec{{Enq(1), Deq()}, {Enq(2), Deq()}},
			ArenaSize:   4,
			CheckLedger: CheckValoisLedger,
		},
	},
	{
		// The paper: "a slow enqueuer may cause a faster process to enqueue
		// an item and subsequently observe an empty queue".
		Name: "stone/paths/invisible-suffix", Expect: "races", States: 373, Events: 546,
		Kind: "linearizability", Detail: "empty",
		Summary: "a completed enqueue observed as empty (non-linearizable)",
		Config:  Config{Algo: AlgoStone, Scripts: [][]OpSpec{{Enq(1)}, {Enq(2), Deq()}}, ArenaSize: 4},
	},
	{
		// A slow dequeuer's counter-less CAS succeeds after its node was
		// dequeued, freed, reused and became Head again.
		Name: "stone/paths/slow-dequeuer-aba", Expect: "races", States: 1453, Events: 2178,
		Kind:    "linearizability",
		Summary: "counter-less CAS re-delivers a dequeued value (lost/duplicated item)",
		Config:  Config{Algo: AlgoStone, Scripts: slowDequeuer, ArenaSize: 3},
	},
	{
		Name: "mc/paths/enq-vs-deq", Expect: "blocking", States: 142, Events: 191,
		Summary: "dequeuer parks in the swap-to-link window (lock-free but blocking)",
		Config:  Config{Algo: AlgoMC, Scripts: enqVsDeq, ArenaSize: 3},
	},
	{
		Name: "epoch/paths/enq-vs-deq", Expect: "clean", States: 1255, Events: 2116,
		Summary: "pin/revalidate + retire-time keying: nothing freed while held",
		Config:  Config{Algo: AlgoEpoch, Scripts: enqVsDeq, ArenaSize: 3, CheckLedger: CheckEpochHeld},
	},
	{
		Name: "epoch/graph/stale-pin-window", Expect: "clean", States: 111607, Events: 208079,
		Summary: "three retires across an epoch advance; limbo horizon holds in every state",
		Config:  Config{Algo: AlgoEpoch, Mode: ModeGraph, Scripts: stalePin, ArenaSize: 5, CheckLedger: CheckEpochHeld},
	},
	{
		Name: "epoch-pinkeyed/graph/stale-pin", Expect: "races", States: 103900, Events: 194709,
		Kind:    "invariant",
		Summary: "limbo keyed by pin epoch frees a node a later pin still holds (the PR-7 bug)",
		Config:  Config{Algo: AlgoEpochPinKeyed, Mode: ModeGraph, Scripts: stalePin, ArenaSize: 5, CheckLedger: CheckEpochHeld},
	},
	{
		Name: "ring/paths/enq-vs-deq", Expect: "clean", States: 43, Events: 52,
		Summary: "slot-cycle CAS + threshold emptiness: linearizable, never blocks",
		Config:  Config{Algo: AlgoRing, Scripts: enqVsDeq, ArenaSize: 1, CheckInvariants: CheckRingInvariants},
	},
	{
		// A 2-slot ring (order 1) keeps the threshold small enough for the
		// empty-side dequeue's retry spending to stay enumerable while
		// still reaching the consume, lag-advance and catch-up CASes.
		Name: "ring/paths/lag-and-catchup", Expect: "clean", States: 484, Events: 735,
		Summary: "a 2-slot ring forces the lag-advance and tail catch-up CASes; still clean",
		Config: Config{
			Algo: AlgoRing, RingOrder: 1,
			Scripts:         [][]OpSpec{{Enq(1), Deq()}, {Deq()}},
			ArenaSize:       1,
			CheckInvariants: CheckRingInvariants,
		},
	},
}

// Classify compares a result against a scenario's expected verdict and
// returns the verdict label plus whether the expectation was met. "clean"
// and "blocking" both claim something of every interleaving, so a capped
// search meets neither.
func Classify(res Result, expect string) (string, bool) {
	hasLin := false
	for _, v := range res.Violations {
		if v.Kind == "linearizability" || v.Kind == "invariant" {
			hasLin = true
		}
	}
	switch expect {
	case "clean":
		if !hasLin && res.Parked == 0 && res.Blocked == 0 && !res.Capped {
			return "CLEAN", true
		}
		return "DIRTY", false
	case "races":
		if hasLin {
			return "RACES", true
		}
		return "MISSED", false
	case "blocking":
		if res.Parked > 0 && !hasLin && res.Blocked == 0 && !res.Capped {
			return "BLOCKS", true
		}
		return "MISSED", false
	default:
		return "?", false
	}
}
