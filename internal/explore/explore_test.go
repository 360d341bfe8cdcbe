package explore

import (
	"strings"
	"testing"
)

func TestMSExhaustivePairPerProcess(t *testing.T) {
	// Paths mode: an enqueue-dequeue pair on each process, every distinct
	// history checked exactly.
	res, err := Run(Config{
		Algo: AlgoMS,
		Scripts: [][]OpSpec{
			{Enq(1), Deq()},
			{Enq(2), Deq()},
		},
		ArenaSize:       4,
		CheckInvariants: CheckMSInvariants,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Capped {
		t.Fatal("exploration capped; raise MaxPaths")
	}
	if res.Paths == 0 {
		t.Fatal("no states explored")
	}
	if res.Blocked != 0 || res.Parked != 0 {
		t.Fatalf("MS queue blocked=%d parked=%d: %v", res.Blocked, res.Parked, res.Violations)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	t.Logf("explored %d states, %d events", res.Paths, res.Events)
}

func TestMSExhaustiveEmptyReports(t *testing.T) {
	// Dequeues racing an enqueue: empty reports must always be legal.
	res, err := Run(Config{
		Algo: AlgoMS,
		Scripts: [][]OpSpec{
			{Deq(), Deq()},
			{Enq(1)},
		},
		ArenaSize:       3,
		CheckInvariants: CheckMSInvariants,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocked != 0 || res.Parked != 0 || len(res.Violations) != 0 {
		t.Fatalf("blocked=%d parked=%d violations=%v", res.Blocked, res.Parked, res.Violations)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Algo: AlgoMS}); err == nil {
		t.Fatal("want error for empty scripts")
	}
	if _, err := Run(Config{Algo: AlgoMS, Scripts: [][]OpSpec{{Enq(1)}}}); err == nil {
		t.Fatal("want error for zero arena")
	}
	_, err := Run(Config{
		Algo:      AlgoMS,
		Scripts:   [][]OpSpec{{Enq(1)}, {Enq(1)}},
		ArenaSize: 4,
	})
	if err == nil {
		t.Fatal("want error for duplicate enqueue values")
	}
}

func TestMaxPathsCap(t *testing.T) {
	res, err := Run(Config{
		Algo: AlgoMS,
		Scripts: [][]OpSpec{
			{Enq(1), Deq()},
			{Enq(2), Deq()},
		},
		ArenaSize: 4,
		MaxPaths:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped {
		t.Fatal("expected the cap to trigger")
	}
}

func TestAlgoString(t *testing.T) {
	if AlgoMS.String() != "ms" || AlgoStone.String() != "stone" || AlgoMC.String() != "mc" {
		t.Fatal("bad algo names")
	}
	if !strings.Contains(Algo(9).String(), "9") {
		t.Fatal("unknown algo should include its number")
	}
}

func TestRefString(t *testing.T) {
	if got := NilRef.String(); got != "<nil,0>" {
		t.Fatalf("NilRef.String() = %q", got)
	}
	if got := (Ref{Idx: 2, Cnt: 5}).String(); got != "<2,5>" {
		t.Fatalf("Ref.String() = %q", got)
	}
}

func TestStoneExplorationFindsNonLinearizableEmpty(t *testing.T) {
	// The paper: "a slow enqueuer may cause a faster process to enqueue an
	// item and subsequently observe an empty queue". Process 1 completes
	// Enq(2) and then dequeues; in some interleaving with process 0's
	// stalled Enq(1) it must observe the illegal empty.
	res, err := Run(scenarioConfig(t, "stone/paths/invisible-suffix"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Capped {
		t.Fatal("exploration capped")
	}
	for _, v := range res.Violations {
		if v.Kind == "linearizability" && strings.Contains(v.Detail, "empty") {
			return
		}
	}
	t.Fatalf("explored %d states without finding Stone's non-linearizable empty: %v", res.Paths, res.Violations)
}

func TestCheckMSInvariantsDetectsCorruption(t *testing.T) {
	s := NewState(3)
	InitQueue(s)

	// Sanity: a fresh queue satisfies all properties.
	if err := CheckMSInvariants(s); err != nil {
		t.Fatalf("fresh queue: %v", err)
	}

	// Head pointing into the free list violates property 4/1.
	broken := s.Clone()
	broken.Head = Ref{Idx: broken.Free[0]}
	if err := CheckMSInvariants(broken); err == nil {
		t.Fatal("head-on-free-list not detected")
	}

	// A self-loop violates property 1.
	broken = s.Clone()
	broken.Nodes[broken.Head.Idx].Next = Ref{Idx: broken.Head.Idx}
	if err := CheckMSInvariants(broken); err == nil {
		t.Fatal("cycle not detected")
	}

	// Tail outside the list violates property 5.
	broken = s.Clone()
	idx, _ := broken.alloc()
	broken.Tail = Ref{Idx: idx}
	if err := CheckMSInvariants(broken); err == nil {
		t.Fatal("detached tail not detected")
	}

	// Null head violates property 4.
	broken = s.Clone()
	broken.Head = NilRef
	if err := CheckMSInvariants(broken); err == nil {
		t.Fatal("null head not detected")
	}
}

func TestCheckHeadSanity(t *testing.T) {
	s := NewState(3)
	InitQueue(s)
	if err := CheckHeadSanity(s); err != nil {
		t.Fatalf("fresh queue: %v", err)
	}

	broken := s.Clone()
	broken.Head = NilRef
	if err := CheckHeadSanity(broken); err == nil {
		t.Fatal("null head not detected")
	}

	broken = s.Clone()
	broken.Head = Ref{Idx: broken.Free[0]}
	if err := CheckHeadSanity(broken); err == nil {
		t.Fatal("head on the free list not detected")
	}

	broken = s.Clone()
	broken.Nodes[broken.Head.Idx].Next = Ref{Idx: broken.Head.Idx}
	if err := CheckHeadSanity(broken); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestCheckTwoLockInvariantsCaveat(t *testing.T) {
	// With the tail lock free, a detached Tail is a violation; with it
	// held, the same state is the legitimate mid-update transient.
	s := NewState(4)
	InitQueue(s)
	idx, _ := s.alloc()
	s.Tail = Ref{Idx: idx} // points at an allocated node outside the list

	if err := CheckTwoLockInvariants(s); err == nil {
		t.Fatal("detached tail with lock free not detected")
	}
	s.TLock = true
	if err := CheckTwoLockInvariants(s); err != nil {
		t.Fatalf("lock-held transient wrongly rejected: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if ModePaths.String() != "paths" || ModeGraph.String() != "graph" {
		t.Fatal("bad mode names")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatalf("unknown mode = %q", Mode(9).String())
	}
}
