package baseline_test

import (
	"sync"
	"testing"
	"time"

	"msqueue/internal/baseline"
	"msqueue/internal/inject"
	"msqueue/internal/locks"
	"msqueue/internal/queue"
	"msqueue/internal/queuetest"
)

func TestSingleLockConformance(t *testing.T) {
	for _, lk := range []struct {
		name string
		mk   func() sync.Locker
	}{
		{"ttas", func() sync.Locker { return new(locks.TTAS) }},
		{"ttas-pure", func() sync.Locker { return new(locks.TTASPure) }},
		{"mutex", func() sync.Locker { return new(sync.Mutex) }},
	} {
		t.Run(lk.name, func(t *testing.T) {
			queuetest.Run(t, func(int) queue.Queue[int] {
				return baseline.NewSingleLock[int](lk.mk())
			}, queuetest.Options{})
		})
	}
}

func TestSingleLockNilLockDefaultsToMutex(t *testing.T) {
	q := baseline.NewSingleLock[int](nil)
	q.Enqueue(42)
	if v, ok := q.Dequeue(); !ok || v != 42 {
		t.Fatalf("Dequeue = %d,%v", v, ok)
	}
}

func TestMCConformance(t *testing.T) {
	queuetest.Run(t, func(int) queue.Queue[int] {
		return baseline.NewMC[int]()
	}, queuetest.Options{})
}

// TestMCStalledEnqueuerBlocksDequeuer demonstrates why the paper classifies
// MC as blocking: an enqueuer frozen between its fetch_and_store and its
// link store stalls every dequeuer that reaches the gap. The MS queue test
// TestMSTaggedStalledEnqueuerDoesNotBlock is the non-blocking contrast.
func TestMCStalledEnqueuerBlocksDequeuer(t *testing.T) {
	q := baseline.NewMC[int]()
	gate := inject.NewGate(baseline.PointMCAfterSwap)
	q.SetTracer(gate)

	stalledDone := make(chan struct{})
	go func() {
		q.Enqueue(1) // freezes after the swap, before the link
		close(stalledDone)
	}()
	<-gate.Entered()

	// The item is claimed but not linked: a dequeuer cannot finish. It must
	// not report empty either (Tail has moved), so it waits.
	deqDone := make(chan int, 1)
	go func() {
		v, ok := q.Dequeue()
		if !ok {
			deqDone <- -1
			return
		}
		deqDone <- v
	}()

	select {
	case v := <-deqDone:
		t.Fatalf("dequeue completed with %d while the enqueuer was stalled: MC should block here", v)
	case <-time.After(50 * time.Millisecond):
		// Blocked, as the paper says.
	}

	gate.Release()
	<-stalledDone
	select {
	case v := <-deqDone:
		if v != 1 {
			t.Fatalf("dequeue returned %d after release, want 1", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dequeue still blocked after the enqueuer was released")
	}
}

// TestMCEnqueueHasNoRetryLoop pins the structural property the paper
// credits to MC: enqueue is a straight-line swap+store, so concurrent
// enqueuers never retry (no ABA precautions needed).
func TestMCEnqueueHasNoRetryLoop(t *testing.T) {
	q := baseline.NewMC[int]()
	var count inject.Counter
	q.SetTracer(&count)
	const n = 500
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < n; i++ {
				q.Enqueue(w*n + i)
			}
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if got := count.Count(baseline.PointMCAfterSwap); got != 4*n {
		t.Fatalf("swap executed %d times for %d enqueues: enqueue retried", got, 4*n)
	}
}

func TestPLJConformance(t *testing.T) {
	queuetest.Run(t, func(int) queue.Queue[int] {
		return baseline.NewPLJ[int]()
	}, queuetest.Options{})
}

func TestValoisConformance(t *testing.T) {
	info := valoisAsIntQueue
	queuetest.Run(t, info, queuetest.Options{})
}

// valoisAsIntQueue adapts the uint64-valued Valois queue for the suite.
func valoisAsIntQueue(cap int) queue.Queue[int] {
	return valoisAdapter{q: baseline.NewValois(cap + 1)}
}

type valoisAdapter struct {
	q *baseline.Valois
}

func (a valoisAdapter) Enqueue(v int) { a.q.Enqueue(uint64(v)) }

func (a valoisAdapter) Dequeue() (int, bool) {
	v, ok := a.q.Dequeue()
	return int(v), ok
}

// TestPLJHelpingCompletesSlowEnqueue verifies the property the paper
// credits to Prakash–Lee–Johnson: "the algorithm achieves the non-blocking
// property by allowing faster processes to complete the operations of
// slower processes". An enqueuer frozen between its link and its Tail swing
// leaves a half-finished operation; other processes finish it (swing Tail)
// and proceed.
func TestPLJHelpingCompletesSlowEnqueue(t *testing.T) {
	q := baseline.NewPLJ[int]()
	gate := inject.NewGate(baseline.PointPLJAfterLink)
	q.SetTracer(gate)

	stalled := make(chan struct{})
	go func() {
		q.Enqueue(1) // freezes with node linked, Tail not yet swung
		close(stalled)
	}()
	<-gate.Entered()

	// Other processes must complete the stalled enqueue (help swing Tail)
	// and carry on with their own operations.
	for i := 2; i <= 10; i++ {
		q.Enqueue(i)
	}
	for want := 1; want <= 10; want++ {
		v, ok := q.Dequeue()
		if !ok || v != want {
			t.Fatalf("Dequeue = %d,%v, want %d (helping failed)", v, ok, want)
		}
	}

	gate.Release()
	<-stalled
	if _, ok := q.Dequeue(); ok {
		t.Fatal("queue should be empty")
	}
}

// TestPLJSnapshotRetakesUnderChurn asserts the snapshot loop actually
// re-reads until stable: under concurrent churn the snapshot point must be
// reached at least once per operation and operations stay correct.
func TestPLJSnapshotRetakesUnderChurn(t *testing.T) {
	q := baseline.NewPLJ[int]()
	var snaps inject.Counter
	q.SetTracer(&snaps)
	const n = 500
	for i := 0; i < n; i++ {
		q.Enqueue(i)
		if v, ok := q.Dequeue(); !ok || v != i {
			t.Fatalf("Dequeue = %d,%v, want %d", v, ok, i)
		}
	}
	// Each enqueue and each dequeue takes at least one snapshot.
	if got := snaps.Count(baseline.PointPLJSnapshot); got < 2*n {
		t.Fatalf("snapshot taken %d times, want >= %d", got, 2*n)
	}
}
