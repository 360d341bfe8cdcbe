package explore

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"msqueue/internal/linearizability"
)

// kindSet collapses a result's violations to the set of kinds found — the
// verdict surface the memo must preserve exactly. Counts per kind are
// schedule-census quantities (how many interleavings hit the bug) and
// legitimately differ once equivalent paths are merged; which *kinds* of
// failure exist must not.
func kindSet(r Result) map[string]bool {
	ks := make(map[string]bool)
	for _, v := range r.Violations {
		ks[v.Kind] = true
	}
	return ks
}

func equalSets(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// crossCheckCases are workloads the oracle can enumerate, spanning every
// modelled machine and every verdict class the explorer can produce: clean
// non-blocking (ms, epoch, ring), racy (stone's lost insertion,
// valois-style flows), and blocking (mc's swap-link window, the two-lock
// queue's lock waits). Where a Scenarios row has the same config, the case
// takes it from the row.
func crossCheckCases(t *testing.T) []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"ms-1x1", scenarioConfig(t, "ms/paths/enq-vs-deq")},
		{"ms-enq-enq-deq", scenarioConfig(t, "ms/paths/pair-vs-enq")},
		{"stone-race", Config{Algo: AlgoStone, Scripts: [][]OpSpec{{Enq(1)}, {Enq(2), Deq()}}, ArenaSize: 4, CheckInvariants: CheckHeadSanity}},
		{"mc-blocking", scenarioConfig(t, "mc/paths/enq-vs-deq")},
		{"two-lock", Config{Algo: AlgoTwoLock, Scripts: [][]OpSpec{{Enq(1)}, {Deq(), Enq(2)}}, ArenaSize: 4, CheckInvariants: CheckTwoLockInvariants}},
		// The unmemoised oracle cannot enumerate the valois 1-enq/1-deq
		// workload (its reference count traffic alone pushes it past 2M
		// paths; the memo covers it in the Scenarios row
		// valois/paths/enq-vs-deq), so the refcount machine's oracle case
		// is the two-empty-dequeue script: SafeRead's acquire/validate, the
		// release cascade, and the shared dummy's counter are all still
		// exercised.
		{"valois-deq-deq", Config{Algo: AlgoValois, Scripts: [][]OpSpec{{Deq()}, {Deq()}}, ArenaSize: 3, CheckLedger: CheckValoisLedger}},
		{"epoch-1x1", scenarioConfig(t, "epoch/paths/enq-vs-deq")},
		{"epoch-deq-deq", Config{Algo: AlgoEpoch, Scripts: [][]OpSpec{{Deq()}, {Deq()}}, ArenaSize: 3, CheckLedger: CheckEpochHeld}},
		{"ring-1x1", scenarioConfig(t, "ring/paths/enq-vs-deq")},
		{"ring-enq-deq-deq", scenarioConfig(t, "ring/paths/lag-and-catchup")},
	}
}

// search runs cfg's depth-first search without minimization: through the
// memo, or with memo false as the unmemoised oracle that enumerates every
// interleaving. It returns the result, the distinct complete histories
// reached (in historyOrder form) and the number of complete executions.
func search(t *testing.T, cfg Config, memo bool) (Result, map[string]bool, int) {
	t.Helper()
	e, s, procs, err := newExplorer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !memo {
		e.visited = nil
	}
	hists := make(map[string]bool)
	leaves := 0
	e.onLeaf = func(s *State) {
		leaves++
		hists[historyOrder(s.History)] = true
	}
	e.dfs(s, procs, nil)
	if e.err != nil {
		t.Fatal(e.err)
	}
	return e.res, hists, leaves
}

// historyOrder renders a complete history with every clock value replaced
// by its rank among the history's endpoints: two histories with the same
// rendering get the same linearizability verdict.
func historyOrder(ops []linearizability.Op) string {
	var clocks []int64
	for _, op := range ops {
		clocks = append(clocks, op.Invoke, op.Return)
	}
	slices.Sort(clocks)
	rank := func(c int64) int {
		i, _ := slices.BinarySearch(clocks, c)
		return i
	}
	lines := make([]string, len(ops))
	for i, op := range ops {
		lines[i] = fmt.Sprintf("P%d %v(%d) [%d,%d]", op.Process, op.Kind, op.Value, rank(op.Invoke), rank(op.Return))
	}
	slices.Sort(lines)
	return strings.Join(lines, "; ")
}

// TestMemoCrossCheck is the fidelity gate for the memo: on every oracle
// case, the memoised search and full enumeration must agree on the verdict
// — the set of violation kinds found, whether blocked states exist, and
// whether any process ever parks — and must reach the same set of complete
// histories. The memo never executes more events than the oracle, every
// memo counterexample replays to its kind, and on ms-enq-enq-deq the memo
// must execute at least 100x fewer events.
func TestMemoCrossCheck(t *testing.T) {
	for _, tc := range crossCheckCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			full, fullHists, leaves := search(t, tc.cfg, false)
			memo, memoHists, _ := search(t, tc.cfg, true)
			if memo.Capped {
				t.Fatalf("memo capped at %d states", memo.Paths)
			}
			if fk, mk := kindSet(full), kindSet(memo); !equalSets(fk, mk) {
				t.Errorf("verdicts differ: full found %v, memo found %v", fk, mk)
			}
			if (full.Blocked > 0) != (memo.Blocked > 0) {
				t.Errorf("blocked-state existence differs: full %d, memo %d", full.Blocked, memo.Blocked)
			}
			if (full.Parked > 0) != (memo.Parked > 0) {
				t.Errorf("parked-process existence differs: full %d, memo %d", full.Parked, memo.Parked)
			}
			if !equalSets(fullHists, memoHists) {
				t.Errorf("complete histories differ: full reached %d, memo %d", len(fullHists), len(memoHists))
			}
			if memo.Events > full.Events {
				t.Errorf("memo executed more events (%d) than full enumeration (%d)", memo.Events, full.Events)
			}
			if tc.name == "ms-enq-enq-deq" && memo.Events*100 > full.Events {
				t.Errorf("insufficient reduction: full %d events, memo %d (need >= 100x)", full.Events, memo.Events)
			}
			for _, v := range memo.Violations {
				res, err := Replay(tc.cfg, v.Schedule)
				if err != nil {
					t.Errorf("memo %s counterexample is not replayable: %v", v.Kind, err)
					continue
				}
				if !kindSet(res)[v.Kind] {
					t.Errorf("replaying memo %s counterexample %v did not reproduce it", v.Kind, v.Schedule)
				}
			}
			t.Logf("full %d paths, %d events; memo %d states, %d events (%.0fx); histories %d = %d; violations %v",
				leaves, full.Events, memo.Paths, memo.Events, float64(full.Events)/float64(max(memo.Events, 1)),
				len(fullHists), len(memoHists), kindSet(memo))
		})
	}
}

// TestMemoFindsStoneViolation checks that the memo still reaches Stone's
// linearizability violation with head-sanity checking on, and that the
// minimized schedule it reports replays to the same violation.
func TestMemoFindsStoneViolation(t *testing.T) {
	cfg := Config{
		Algo:            AlgoStone,
		Scripts:         [][]OpSpec{{Enq(1)}, {Enq(2), Deq()}},
		ArenaSize:       4,
		CheckInvariants: CheckHeadSanity,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lin *Violation
	for i := range res.Violations {
		if res.Violations[i].Kind == "linearizability" {
			lin = &res.Violations[i]
			break
		}
	}
	if lin == nil {
		t.Fatalf("memo missed Stone's linearizability violation (violations: %v)", res.Violations)
	}
	if lin.Minimized == nil {
		t.Fatalf("violation has no minimized schedule")
	}
	if len(lin.Minimized) > len(lin.Schedule) {
		t.Fatalf("minimized schedule longer than the original: %d > %d", len(lin.Minimized), len(lin.Schedule))
	}
	rep, err := Replay(cfg, lin.Minimized)
	if err != nil {
		t.Fatalf("minimized schedule does not replay: %v", err)
	}
	if !kindSet(rep)["linearizability"] {
		t.Fatalf("minimized schedule %v lost the violation", lin.Minimized)
	}
}

// TestEpochModelNonBlocking pins the liveness shape of the epoch machine on
// a small workload: exploration completes with no blocked states and no
// parked processes (the epoch MS queue is as non-blocking as the counted
// one; reclamation never makes anyone wait).
func TestEpochModelNonBlocking(t *testing.T) {
	res, err := Run(Config{
		Algo:        AlgoEpoch,
		Scripts:     [][]OpSpec{{Enq(1), Deq()}, {Deq()}},
		ArenaSize:   4,
		CheckLedger: CheckEpochHeld,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Capped {
		t.Fatalf("capped at %d states", res.Paths)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Blocked != 0 || res.Parked != 0 {
		t.Fatalf("epoch machine must be non-blocking: blocked=%d parked=%d", res.Blocked, res.Parked)
	}
}

// TestRingModelVerdicts pins the ring machine's explored behaviour: clean
// invariants and linearizable histories on a mixed workload, and correct
// emptiness (a dequeue on the empty ring completes empty without blocking
// anyone).
func TestRingModelVerdicts(t *testing.T) {
	// The default order 3 (8 slots, capacity 4) is the ring qmodel and the
	// fuzzer model; the empty dequeue's threshold spending multiplies
	// interleavings but not states.
	res, err := Run(Config{
		Algo:            AlgoRing,
		Scripts:         [][]OpSpec{{Enq(1), Deq()}, {Deq(), Enq(2)}},
		ArenaSize:       1,
		CheckInvariants: CheckRingInvariants,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Capped {
		t.Fatalf("capped at %d states", res.Paths)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Blocked != 0 {
		t.Fatalf("blocked states: %d", res.Blocked)
	}
	t.Logf("ring workload: %d states, %d events, parked %d", res.Paths, res.Events, res.Parked)
}

// TestReplayRejectsInfeasible documents Replay's contract: schedules that
// step a finished or out-of-range process are errors, not silent no-ops.
func TestReplayRejectsInfeasible(t *testing.T) {
	cfg := Config{Algo: AlgoMS, Scripts: [][]OpSpec{{Enq(1)}}, ArenaSize: 2}
	if _, err := Replay(cfg, []int{7}); err == nil {
		t.Fatal("out-of-range process accepted")
	}
	long := make([]int, 100)
	if _, err := Replay(cfg, long); err == nil {
		t.Fatal("schedule past script completion accepted")
	}
}
