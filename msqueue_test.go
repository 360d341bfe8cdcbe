package msqueue_test

import (
	"fmt"
	"sync"
	"testing"

	"msqueue"
	"msqueue/internal/locks"
	"msqueue/internal/queue"
	"msqueue/internal/queuetest"
)

func TestNewConformance(t *testing.T) {
	queuetest.Run(t, func(int) queue.Queue[int] {
		return msqueue.New[int]()
	}, queuetest.Options{})
}

func TestNewTwoLockConformance(t *testing.T) {
	queuetest.Run(t, func(int) queue.Queue[int] {
		return msqueue.NewTwoLock[int]()
	}, queuetest.Options{})
}

func TestNewTwoLockWithSpinLocks(t *testing.T) {
	queuetest.Run(t, func(int) queue.Queue[int] {
		return msqueue.NewTwoLock[int](msqueue.WithSpinLocks())
	}, queuetest.Options{})
}

func TestNewTwoLockWithExplicitLocks(t *testing.T) {
	q := msqueue.NewTwoLock[string](
		msqueue.WithHeadLock(new(locks.TTAS)),
		msqueue.WithTailLock(&sync.Mutex{}),
	)
	q.Enqueue("a")
	q.Enqueue("b")
	if v, ok := q.Dequeue(); !ok || v != "a" {
		t.Fatalf("Dequeue = %q,%v", v, ok)
	}
	if v, ok := q.Dequeue(); !ok || v != "b" {
		t.Fatalf("Dequeue = %q,%v", v, ok)
	}
}

func TestQueueInterfaceSatisfied(t *testing.T) {
	var _ msqueue.Queue[int] = msqueue.New[int]()
	var _ msqueue.Queue[int] = msqueue.NewTwoLock[int]()
}

func ExampleNew() {
	q := msqueue.New[string]()
	q.Enqueue("first")
	q.Enqueue("second")

	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		fmt.Println(v)
	}
	// Output:
	// first
	// second
}

func ExampleNew_concurrent() {
	q := msqueue.New[int]()

	var producers sync.WaitGroup
	for p := 0; p < 4; p++ {
		producers.Add(1)
		go func(p int) {
			defer producers.Done()
			for i := 0; i < 100; i++ {
				q.Enqueue(p*100 + i)
			}
		}(p)
	}
	producers.Wait()

	sum := 0
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		sum += v
	}
	fmt.Println(sum)
	// Output:
	// 79800
}

func ExampleNewTwoLock() {
	q := msqueue.NewTwoLock[int](msqueue.WithSpinLocks())
	q.Enqueue(1)
	q.Enqueue(2)
	v, _ := q.Dequeue()
	fmt.Println(v)
	// Output:
	// 1
}

func ExampleNewBlocking() {
	q := msqueue.NewBlocking[int]()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			v, ok := q.DequeueWait() // parks until an item arrives or Close
			if !ok {
				return
			}
			fmt.Println("got", v)
		}
	}()

	q.Enqueue(1)
	q.Enqueue(2)
	q.Close()
	<-done
	// Output:
	// got 1
	// got 2
}
