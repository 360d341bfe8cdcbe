// Command qmodel runs the bounded model checker over the queue algorithms,
// mechanically re-establishing the paper's section 3:
//
//	qmodel -algo ms            # invariants + linearizability + non-blocking
//	qmodel -algo stone         # finds the published races automatically
//	qmodel -algo mc            # finds the blocking window automatically
//	qmodel -algo epoch         # epoch-reclamation pin/advance protocol
//	qmodel -algo ring          # the SCQ slot-cycle protocol
//	qmodel -algo all           # the full suite
//
// Each algorithm runs a set of small workloads, each searched over every
// interleaving with a memo of visited states. A paths scenario keys the
// memo on the state plus the order of the history's endpoints, so every
// distinct complete history is checked for linearizability; a graph
// scenario keys it on the state alone and checks every reachable state.
// The printed count is of distinct memo keys. The expected
// verdicts mirror the paper: the MS queue is clean everywhere, Stone's
// queue is non-linearizable and loses items through the counter-less ABA,
// and Mellor-Crummey's queue blocks dequeuers behind a stalled enqueuer.
// The epoch and ring machines extend the suite past the paper to the
// repository's reclamation and bounded-queue layers, including the
// pin-keyed limbo variant (the PR-7 bug) as a deliberately dirty specimen.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"msqueue/internal/explore"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "qmodel:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

type scenario struct {
	name    string
	cfg     explore.Config
	expect  string // "clean", "races", "blocking"
	summary string
}

func scenarios(algo explore.Algo) []scenario {
	twoProcPairs := [][]explore.OpSpec{
		{explore.Enq(1), explore.Deq()},
		{explore.Enq(2)},
	}
	threeProc := [][]explore.OpSpec{
		{explore.Enq(1)},
		{explore.Enq(2)},
		{explore.Deq(), explore.Deq()},
	}
	reuseHeavy := [][]explore.OpSpec{
		{explore.Enq(1), explore.Deq(), explore.Enq(3), explore.Deq()},
		{explore.Enq(2), explore.Deq()},
	}
	slowDequeuer := [][]explore.OpSpec{
		{explore.Deq()},
		{explore.Enq(1), explore.Deq(), explore.Enq(2), explore.Deq()},
	}
	enqVsDeq := [][]explore.OpSpec{
		{explore.Enq(1)},
		{explore.Deq()},
	}
	// stalePin is the epoch-keying witness workload: three enqueues feed
	// three retires, the first advancing the global epoch past a pinned
	// peer, so a retire under the stale pin lands in a limbo bucket whose
	// key separates the two keying policies (see the epoch regression
	// tests in internal/explore).
	stalePin := [][]explore.OpSpec{
		{explore.Deq(), explore.Deq()},
		{explore.Enq(1), explore.Enq(2), explore.Enq(3), explore.Deq(), explore.Deq()},
	}

	switch algo {
	case explore.AlgoMS:
		return []scenario{
			{
				name: "ms/paths/pair-vs-enq", expect: "clean",
				summary: "all interleavings linearizable, invariants hold, never blocks",
				cfg: explore.Config{
					Algo: explore.AlgoMS, Scripts: twoProcPairs, ArenaSize: 4,
					CheckInvariants: explore.CheckMSInvariants,
				},
			},
			{
				name: "ms/graph/three-procs", expect: "clean",
				summary: "section 3.1 invariants in every reachable state",
				cfg: explore.Config{
					Algo: explore.AlgoMS, Mode: explore.ModeGraph, Scripts: threeProc, ArenaSize: 4,
					CheckInvariants: explore.CheckMSInvariants,
				},
			},
			{
				name: "ms/graph/tiny-arena-reuse", expect: "clean",
				summary: "ABA pressure via immediate node reuse; counters hold",
				cfg: explore.Config{
					Algo: explore.AlgoMS, Mode: explore.ModeGraph, Scripts: reuseHeavy, ArenaSize: 3,
					CheckInvariants: explore.CheckMSInvariants,
				},
			},
			{
				name: "ms/graph/slow-dequeuer", expect: "clean",
				summary: "the schedule that breaks Stone cannot corrupt MS",
				cfg: explore.Config{
					Algo: explore.AlgoMS, Mode: explore.ModeGraph, Scripts: slowDequeuer, ArenaSize: 3,
					CheckInvariants: explore.CheckMSInvariants,
				},
			},
			{
				name: "ms/paths/enq-vs-deq", expect: "clean",
				summary: "no parked states: the dequeuer never waits on the enqueuer",
				cfg: explore.Config{
					Algo: explore.AlgoMS, Scripts: enqVsDeq, ArenaSize: 3,
					CheckInvariants: explore.CheckMSInvariants,
				},
			},
		}
	case explore.AlgoStone:
		return []scenario{
			{
				name: "stone/paths/invisible-suffix", expect: "races",
				summary: "a completed enqueue observed as empty (non-linearizable)",
				cfg: explore.Config{
					Algo: explore.AlgoStone,
					Scripts: [][]explore.OpSpec{
						{explore.Enq(1)},
						{explore.Enq(2), explore.Deq()},
					},
					ArenaSize: 4,
				},
			},
			{
				name: "stone/paths/slow-dequeuer-aba", expect: "races",
				summary: "counter-less CAS re-delivers a dequeued value (lost/duplicated item)",
				cfg: explore.Config{
					Algo: explore.AlgoStone, Scripts: slowDequeuer, ArenaSize: 3,
				},
			},
		}
	case explore.AlgoMC:
		return []scenario{
			{
				name: "mc/paths/enq-vs-deq", expect: "blocking",
				summary: "dequeuer parks in the swap-to-link window (lock-free but blocking)",
				cfg: explore.Config{
					Algo: explore.AlgoMC, Scripts: enqVsDeq, ArenaSize: 3,
				},
			},
		}
	case explore.AlgoValois:
		return []scenario{
			{
				name: "valois/paths/enq-vs-deq", expect: "clean",
				summary: "SafeRead and the release cascade: every history linearizable, ledger balanced",
				cfg: explore.Config{
					Algo: explore.AlgoValois, Scripts: enqVsDeq, ArenaSize: 3,
					CheckLedger: explore.CheckValoisLedger,
				},
			},
			{
				name: "valois/graph/refcount-ledger", expect: "clean",
				summary: "reference-count ledger balanced in every reachable state; non-blocking",
				cfg: explore.Config{
					Algo: explore.AlgoValois,
					Mode: explore.ModeGraph,
					Scripts: [][]explore.OpSpec{
						{explore.Enq(1), explore.Deq()},
						{explore.Enq(2), explore.Deq()},
					},
					ArenaSize:   4,
					CheckLedger: explore.CheckValoisLedger,
				},
			},
		}
	case explore.AlgoEpoch:
		return []scenario{
			{
				name: "epoch/paths/enq-vs-deq", expect: "clean",
				summary: "pin/revalidate + retire-time keying: nothing freed while held",
				cfg: explore.Config{
					Algo: explore.AlgoEpoch, Scripts: enqVsDeq, ArenaSize: 3,
					CheckLedger: explore.CheckEpochHeld,
				},
			},
			{
				name: "epoch/graph/stale-pin-window", expect: "clean",
				summary: "three retires across an epoch advance; limbo horizon holds in every state",
				cfg: explore.Config{
					Algo: explore.AlgoEpoch, Mode: explore.ModeGraph,
					Scripts:     stalePin,
					ArenaSize:   5,
					CheckLedger: explore.CheckEpochHeld,
				},
			},
		}
	case explore.AlgoEpochPinKeyed:
		return []scenario{
			{
				name: "epoch-pinkeyed/graph/stale-pin", expect: "races",
				summary: "limbo keyed by pin epoch frees a node a later pin still holds (the PR-7 bug)",
				cfg: explore.Config{
					Algo: explore.AlgoEpochPinKeyed, Mode: explore.ModeGraph,
					Scripts:     stalePin,
					ArenaSize:   5,
					CheckLedger: explore.CheckEpochHeld,
				},
			},
		}
	case explore.AlgoRing:
		return []scenario{
			{
				name: "ring/paths/enq-vs-deq", expect: "clean",
				summary: "slot-cycle CAS + threshold emptiness: linearizable, never blocks",
				cfg: explore.Config{
					Algo: explore.AlgoRing, Scripts: enqVsDeq, ArenaSize: 1,
					CheckInvariants: explore.CheckRingInvariants,
				},
			},
			{
				name: "ring/paths/lag-and-catchup", expect: "clean",
				summary: "a 2-slot ring forces the lag-advance and tail catch-up CASes; still clean",
				cfg: explore.Config{
					Algo: explore.AlgoRing, RingOrder: 1,
					Scripts: [][]explore.OpSpec{
						{explore.Enq(1), explore.Deq()},
						{explore.Deq()},
					},
					ArenaSize:       1,
					CheckInvariants: explore.CheckRingInvariants,
				},
			},
		}
	case explore.AlgoTwoLock:
		return []scenario{
			{
				name: "two-lock/paths/pair-vs-enq", expect: "blocking",
				summary: "correct and deadlock-free, but waiters park behind a stalled lock holder",
				cfg: explore.Config{
					Algo: explore.AlgoTwoLock,
					Scripts: [][]explore.OpSpec{
						{explore.Enq(1), explore.Deq()},
						{explore.Enq(2)},
					},
					ArenaSize:       4,
					CheckInvariants: explore.CheckTwoLockInvariants,
				},
			},
			{
				name: "two-lock/graph/three-procs", expect: "blocking",
				summary: "section 3.1 invariants (with the tail-lock caveat) in every state; no deadlock",
				cfg: explore.Config{
					Algo: explore.AlgoTwoLock,
					Mode: explore.ModeGraph,
					Scripts: [][]explore.OpSpec{
						{explore.Enq(1), explore.Deq()},
						{explore.Enq(2)},
						{explore.Deq()},
					},
					ArenaSize:       4,
					CheckInvariants: explore.CheckTwoLockInvariants,
				},
			},
		}
	default:
		return nil
	}
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("qmodel", flag.ContinueOnError)
	algoFlag := fs.String("algo", "all", `algorithm to model-check: "ms", "two-lock", "valois", "stone", "mc", "epoch", "epoch-pinkeyed", "ring" or "all"`)
	verbose := fs.Bool("v", false, "print every violation found")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}

	var algos []explore.Algo
	switch *algoFlag {
	case "all":
		algos = []explore.Algo{
			explore.AlgoMS, explore.AlgoTwoLock, explore.AlgoValois,
			explore.AlgoStone, explore.AlgoMC,
			explore.AlgoEpoch, explore.AlgoEpochPinKeyed, explore.AlgoRing,
		}
	case "ms":
		algos = []explore.Algo{explore.AlgoMS}
	case "two-lock":
		algos = []explore.Algo{explore.AlgoTwoLock}
	case "valois":
		algos = []explore.Algo{explore.AlgoValois}
	case "stone":
		algos = []explore.Algo{explore.AlgoStone}
	case "mc":
		algos = []explore.Algo{explore.AlgoMC}
	case "epoch":
		algos = []explore.Algo{explore.AlgoEpoch}
	case "epoch-pinkeyed":
		algos = []explore.Algo{explore.AlgoEpochPinKeyed}
	case "ring":
		algos = []explore.Algo{explore.AlgoRing}
	default:
		return 1, fmt.Errorf("unknown algorithm %q", *algoFlag)
	}

	exitCode := 0
	for _, algo := range algos {
		for _, sc := range scenarios(algo) {
			res, err := explore.Run(sc.cfg)
			if err != nil {
				return 1, err
			}
			verdict, ok := classify(res, sc.expect)
			if !ok {
				exitCode = 2
			}
			fmt.Printf("%-7s %-30s %7d states, %7d events, parked=%d blocked=%d violations=%d — %s\n",
				verdict, sc.name, res.Paths, res.Events, res.Parked, res.Blocked, len(res.Violations), sc.summary)
			if *verbose {
				for _, v := range res.Violations {
					fmt.Printf("        %v\n", v)
				}
			}
		}
	}
	return exitCode, nil
}

// classify compares a result against the scenario's expectation and returns
// a verdict label plus whether the expectation was met.
func classify(res explore.Result, expect string) (string, bool) {
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
		return strings.ToUpper("missed"), false
	case "blocking":
		if res.Parked > 0 && !hasLin && res.Blocked == 0 {
			return "BLOCKS", true
		}
		return strings.ToUpper("missed"), false
	default:
		return "?", false
	}
}
