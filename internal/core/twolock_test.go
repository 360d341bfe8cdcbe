package core_test

import (
	"sync"
	"testing"

	"msqueue/internal/algorithms"
	"msqueue/internal/core"
	"msqueue/internal/locks"
	"msqueue/internal/queue"
	"msqueue/internal/queuetest"
)

func TestTwoLockConformance(t *testing.T) {
	// Run the suite once per lock algorithm the queue can be built with:
	// the queue's correctness must not depend on the lock flavour.
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
				return core.NewTwoLock[int](lk.mk(), lk.mk())
			}, queuetest.Options{})
		})
	}
}

func TestTwoLockNilLocksDefaultToMutex(t *testing.T) {
	q := core.NewTwoLock[int](nil, nil)
	q.Enqueue(1)
	if v, ok := q.Dequeue(); !ok || v != 1 {
		t.Fatalf("Dequeue = %d,%v", v, ok)
	}
}

func TestTwoLockTaggedConformance(t *testing.T) {
	info, err := algorithms.Lookup("two-lock-tagged")
	if err != nil {
		t.Fatal(err)
	}
	queuetest.Run(t, info.New, queuetest.Options{})
}

func TestTwoLockTaggedNodeReuse(t *testing.T) {
	q := core.NewTwoLockTagged(4, nil, nil)
	for round := 0; round < 500; round++ {
		for i := uint64(0); i < 4; i++ {
			if !q.TryEnqueue(i) {
				t.Fatalf("round %d: arena exhausted: nodes are not being reused", round)
			}
		}
		for i := uint64(0); i < 4; i++ {
			if v, ok := q.Dequeue(); !ok || v != i {
				t.Fatalf("round %d: Dequeue = %d,%v, want %d", round, v, ok, i)
			}
		}
	}
	if got := q.Arena().InUse(); got != 1 {
		t.Fatalf("%d nodes in use after drain, want 1 (the dummy)", got)
	}
}

// TestTwoLockEnqueueDequeueOverlap verifies the design goal stated in the
// paper: with separate head and tail locks, an enqueuer and a dequeuer can
// hold their respective locks simultaneously. We occupy the head lock and
// show enqueues still complete.
func TestTwoLockEnqueueDequeueOverlap(t *testing.T) {
	hlock := &sync.Mutex{}
	q := core.NewTwoLock[int](hlock, &sync.Mutex{})
	q.Enqueue(1)

	hlock.Lock() // dequeuers are now blocked
	done := make(chan struct{})
	go func() {
		for i := 2; i <= 50; i++ {
			q.Enqueue(i) // must not need the head lock
		}
		close(done)
	}()
	<-done
	hlock.Unlock()

	for want := 1; want <= 50; want++ {
		v, ok := q.Dequeue()
		if !ok || v != want {
			t.Fatalf("Dequeue = %d,%v, want %d", v, ok, want)
		}
	}
}

// TestTwoLockNoDeadlockUnderInversion drives enqueuers and dequeuers
// concurrently for long enough that any lock-ordering deadlock would
// manifest; the algorithm needs no ordering because no operation ever holds
// both locks.
func TestTwoLockNoDeadlockUnderInversion(t *testing.T) {
	q := core.NewTwoLock[int](new(locks.TTAS), new(locks.TTAS))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if w%2 == 0 {
					q.Enqueue(i)
				} else {
					q.Dequeue()
				}
			}
		}(w)
	}
	wg.Wait()
}
