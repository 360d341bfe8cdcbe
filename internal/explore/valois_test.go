package explore

import "testing"

func TestValoisModelSequentialScript(t *testing.T) {
	// Single process: the machine must produce plain FIFO behaviour and a
	// balanced ledger at every event.
	res, err := Run(Config{
		Algo: AlgoValois,
		Scripts: [][]OpSpec{
			{Enq(1), Enq(2), Deq(), Enq(3), Deq(), Deq(), Deq()},
		},
		ArenaSize:   5,
		CheckLedger: CheckValoisLedger,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths != res.Events+1 {
		t.Fatalf("sequential script explored %d states over %d events, want one state per event plus the initial one", res.Paths, res.Events)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}

func TestValoisLinearizableInterleavings(t *testing.T) {
	// Valois operations span ~15 events each, so the interleavings number
	// in the millions, but the memo merges those that reach the same state
	// with the same history order: every distinct complete history goes
	// through the exact checker, the ledger after every event.
	res, err := Run(Config{
		Algo: AlgoValois,
		Scripts: [][]OpSpec{
			{Enq(1), Deq()},
			{Deq()},
		},
		ArenaSize:   4,
		CheckLedger: CheckValoisLedger,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Capped {
		t.Fatalf("exploration capped at %d states", res.Paths)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Parked != 0 {
		t.Fatalf("parked=%d: valois should be non-blocking", res.Parked)
	}
	t.Logf("explored %d states, %d events", res.Paths, res.Events)
}

func TestValoisLedgerDetectsCorruption(t *testing.T) {
	// Sanity for the checker itself: a fabricated extra reference fails.
	s := NewState(3)
	InitValoisQueue(s)
	if err := CheckValoisLedger(s, nil); err != nil {
		t.Fatalf("fresh queue: %v", err)
	}
	s.Nodes[s.Head.Idx].Refct++ // phantom reference
	if err := CheckValoisLedger(s, nil); err == nil {
		t.Fatal("phantom reference not detected")
	}
	s.Nodes[s.Head.Idx].Refct -= 2 // lost reference
	if err := CheckValoisLedger(s, nil); err == nil {
		t.Fatal("lost reference not detected")
	}
}
