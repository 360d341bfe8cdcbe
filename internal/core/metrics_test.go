package core

import (
	"sync"
	"testing"

	"msqueue/internal/inject"
	"msqueue/internal/metrics"
)

// TestProbeCountsLaggingTailHelp pins the probe's tail-swing sites
// deterministically: an enqueuer stalled between its link CAS (E9) and its
// tail swing (E13) leaves Tail lagging, so the next enqueuer must help
// (E12 → EnqueueTailSwing) and a dequeuer observing head == tail with a
// non-nil next must help too (D9 → DequeueTailSwing).
func TestProbeCountsLaggingTailHelp(t *testing.T) {
	t.Run("enqueue-helps", func(t *testing.T) {
		q := NewMSTagged(16)
		p := metrics.NewProbe()
		q.SetProbe(p)
		gate := inject.NewGate(PointE13BeforeSwing)
		q.SetTracer(gate)

		done := make(chan struct{})
		go func() {
			q.Enqueue(1) // stalls with the node linked but Tail not swung
			close(done)
		}()
		<-gate.Entered()

		q.Enqueue(2) // must swing the lagging tail before linking
		if got := p.Site(metrics.EnqueueTailSwing); got < 1 {
			t.Fatalf("EnqueueTailSwing = %d, want >= 1 (tail was lagging)", got)
		}
		gate.Release()
		<-done
	})

	t.Run("dequeue-helps", func(t *testing.T) {
		q := NewMSTagged(16)
		p := metrics.NewProbe()
		q.SetProbe(p)
		gate := inject.NewGate(PointE13BeforeSwing)
		q.SetTracer(gate)

		done := make(chan struct{})
		go func() {
			q.Enqueue(1)
			close(done)
		}()
		<-gate.Entered()

		// head == tail (both at the dummy) but dummy.next is linked: the
		// dequeuer must swing Tail on the stalled enqueuer's behalf.
		if v, ok := q.Dequeue(); !ok || v != 1 {
			t.Fatalf("Dequeue = %d,%v, want 1,true", v, ok)
		}
		if got := p.Site(metrics.DequeueTailSwing); got < 1 {
			t.Fatalf("DequeueTailSwing = %d, want >= 1 (tail was lagging)", got)
		}
		gate.Release()
		<-done
	})
}

// TestMSTaggedProbeCountsEveryLoopPass pins the identity qbench's retry
// profile rests on: every pass of MSTagged's enqueue loop after the first
// is counted at exactly one probe site (E7, E9 or E12), and likewise for
// dequeue (D5, D9 or D12). So the E5 and D2 reads a tracer sees equal the
// operation count plus the probe's site sum, at every level of contention.
func TestMSTaggedProbeCountsEveryLoopPass(t *testing.T) {
	const perWorker = 5000
	for _, workers := range []int{1, 2, 4, 8} {
		q := NewMSTagged(1024)
		reads := &inject.Counter{}
		q.SetTracer(reads)
		p := metrics.NewProbe()
		q.SetProbe(p)

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					q.Enqueue(uint64(w*perWorker + i))
					q.Dequeue()
				}
			}(w)
		}
		wg.Wait()

		ops := int64(workers * perWorker) // enqueues, and also dequeue calls
		enq := ops + p.Site(metrics.EnqueueInconsistent) + p.Site(metrics.EnqueueLinkCAS) + p.Site(metrics.EnqueueTailSwing)
		deq := ops + p.Site(metrics.DequeueInconsistent) + p.Site(metrics.DequeueTailSwing) + p.Site(metrics.DequeueHeadCAS)
		t.Logf("workers=%d: %d ops, %d enqueue loop passes, %d dequeue loop passes", workers, ops, enq, deq)
		if got := int64(reads.Count(PointE5ReadTail)); got != enq {
			t.Errorf("workers=%d: E5 reads = %d, enqueues + enqueue-site sum = %d", workers, got, enq)
		}
		if got := int64(reads.Count(PointD2ReadHead)); got != deq {
			t.Errorf("workers=%d: D2 reads = %d, dequeues + dequeue-site sum = %d", workers, got, deq)
		}
	}
}

// TestProbedQueueConcurrentReaders exercises every instrumented path of
// both MS variants while snapshot readers run concurrently; under -race
// this verifies the probe's counters and histograms are safely published.
func TestProbedQueueConcurrentReaders(t *testing.T) {
	p := metrics.NewProbe()
	gc := NewMS[int]()
	gc.SetProbe(p)
	tagged := NewMSTagged(1024)
	tagged.SetProbe(p)

	const writers = 4
	const opsPerWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					snap := p.Snapshot()
					if snap.Retries() < 0 {
						t.Error("negative retry count")
						return
					}
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < opsPerWriter; i++ {
				gc.Enqueue(i)
				tagged.Enqueue(uint64(i))
				gc.Dequeue()
				tagged.Dequeue()
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
}

// BenchmarkMSProbe measures the probe's overhead on the uncontended MS
// fast path: "off" is the nil-probe configuration every figure run uses
// (the acceptance bar: within noise of the pre-instrumentation baseline),
// "on" pays the per-failure accounting, which on a success path is zero
// events — the difference is the pointer check alone.
func BenchmarkMSProbe(b *testing.B) {
	run := func(b *testing.B, p *metrics.Probe) {
		q := NewMS[int]()
		q.SetProbe(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Enqueue(i)
			q.Dequeue()
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, metrics.NewProbe()) })
}

// BenchmarkMSTracer pins the cost of the fault-injection pause points the
// chaos engine relies on, following the BenchmarkMSProbe pattern: "off" is
// the production configuration (nil tracer — the hooks must cost one nil
// check), "on" installs a counting tracer as a ceiling.
func BenchmarkMSTracer(b *testing.B) {
	run := func(b *testing.B, tr inject.Tracer) {
		q := NewMS[int]()
		q.SetTracer(tr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Enqueue(i)
			q.Dequeue()
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, &inject.Counter{}) })
}
