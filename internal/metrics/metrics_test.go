package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilProbeIsSafe(t *testing.T) {
	var p *Probe
	p.Add(EnqueueLinkCAS, 3)
	p.Observe(Enqueue, time.Microsecond)
	if p.Enabled() {
		t.Fatal("nil probe reports Enabled")
	}
	if got := p.Site(EnqueueLinkCAS); got != 0 {
		t.Fatalf("nil probe Site = %d", got)
	}
	snap := p.Snapshot()
	if snap.Events() != 0 || snap.Latency[Enqueue].Count != 0 {
		t.Fatalf("nil probe snapshot not empty: %+v", snap)
	}
}

func TestAddAndSnapshot(t *testing.T) {
	p := NewProbe()
	p.Add(EnqueueLinkCAS, 2)
	p.Add(EnqueueLinkCAS, 3)
	p.Add(DequeueHeadCAS, 1)
	p.Add(LockSpin, 7)
	p.Add(StealMiss, 4)
	p.Add(StealHit, 0) // zero adds are dropped

	if got := p.Site(EnqueueLinkCAS); got != 5 {
		t.Fatalf("Site(EnqueueLinkCAS) = %d, want 5", got)
	}
	snap := p.Snapshot()
	if snap.Sites[DequeueHeadCAS] != 1 {
		t.Fatalf("Sites[DequeueHeadCAS] = %d", snap.Sites[DequeueHeadCAS])
	}
	if got := snap.Retries(); got != 6 { // link CAS 5 + head CAS 1
		t.Fatalf("Retries = %d, want 6", got)
	}
	if got := snap.LockSpins(); got != 7 {
		t.Fatalf("LockSpins = %d, want 7", got)
	}
	hits, misses := snap.Steals()
	if hits != 0 || misses != 4 {
		t.Fatalf("Steals = %d, %d", hits, misses)
	}
	if got := snap.Events(); got != 17 {
		t.Fatalf("Events = %d, want 17", got)
	}
}

func TestObserveQuantiles(t *testing.T) {
	p := NewProbe()
	// 90 fast ops around 100ns, 10 slow ops around 1ms: p50 must land in
	// the fast band, p99 in the slow band, despite bucket quantisation.
	for i := 0; i < 90; i++ {
		p.Observe(Dequeue, 100*time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		p.Observe(Dequeue, time.Millisecond)
	}
	l := p.Snapshot().Latency[Dequeue]
	if l.Count != 100 {
		t.Fatalf("Count = %d, want 100", l.Count)
	}
	p50, p99 := l.Quantile(0.50), l.Quantile(0.99)
	if p50 < 64*time.Nanosecond || p50 > 256*time.Nanosecond {
		t.Fatalf("p50 = %v, want within the ~100ns bucket", p50)
	}
	if p99 < 512*time.Microsecond || p99 > 2*time.Millisecond {
		t.Fatalf("p99 = %v, want within the ~1ms bucket", p99)
	}
	if max := l.Quantile(1); max < p99 {
		t.Fatalf("Quantile(1) = %v below p99 %v", max, p99)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var l LatencySnapshot
	if got := l.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %v", got)
	}
	var h Histogram
	h.Observe(-time.Second) // clock step: counted as zero, not dropped
	l = h.Snapshot()
	if l.Count != 1 || l.Buckets[0] != 1 {
		t.Fatalf("negative observation: %+v", l)
	}
	if got := l.Quantile(0); got != 0 {
		t.Fatalf("Quantile(0) = %v", got)
	}
	if got := l.Quantile(2); got != 0 { // clamped to 1; only bucket 0 filled
		t.Fatalf("Quantile(2) = %v", got)
	}
}

func TestBucketBounds(t *testing.T) {
	if got := BucketMidpoint(0); got != 0 {
		t.Fatalf("BucketMidpoint(0) = %v", got)
	}
	// Bucket for 100ns is bits.Len64(100) = 7: range [64, 128), mid 96.
	if got := BucketMidpoint(7); got != 96*time.Nanosecond {
		t.Fatalf("BucketMidpoint(7) = %v, want 96ns", got)
	}
	if got := BucketUpperBound(7); got != 127*time.Nanosecond {
		t.Fatalf("BucketUpperBound(7) = %v, want 127ns", got)
	}
	if got := BucketUpperBound(63); got <= 0 {
		t.Fatalf("BucketUpperBound(63) = %v overflowed", got)
	}
}

// TestCountersSurviveConcurrentReaders hammers one probe from writer
// goroutines while reader goroutines continuously snapshot it; run under
// -race this is the regression test that the observability layer itself is
// data-race free and loses no events.
func TestCountersSurviveConcurrentReaders(t *testing.T) {
	const (
		writers = 8
		perG    = 5000
	)
	p := NewProbe()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := p.Snapshot()
				// Monotonic counters can never exceed the final totals.
				if snap.Sites[EnqueueLinkCAS] > writers*perG {
					t.Errorf("Sites[EnqueueLinkCAS] = %d exceeds writes", snap.Sites[EnqueueLinkCAS])
					return
				}
			}
		}()
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perG; i++ {
				p.Add(EnqueueLinkCAS, 1)
				p.Add(LockSpin, 2)
				p.Observe(Op(w%NumOps), time.Duration(i)*time.Nanosecond)
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	snap := p.Snapshot()
	if got := snap.Sites[EnqueueLinkCAS]; got != writers*perG {
		t.Fatalf("Sites[EnqueueLinkCAS] = %d, want %d", got, writers*perG)
	}
	if got := snap.LockSpins(); got != 2*writers*perG {
		t.Fatalf("LockSpins = %d, want %d", got, 2*writers*perG)
	}
	var latTotal int64
	for op := 0; op < NumOps; op++ {
		latTotal += snap.Latency[op].Count
	}
	if latTotal != writers*perG {
		t.Fatalf("latency observations = %d, want %d", latTotal, writers*perG)
	}
}

func TestReport(t *testing.T) {
	p := NewProbe()
	snapEmpty := p.Snapshot()
	if got := snapEmpty.Report(0); !strings.Contains(got, "no contention events") {
		t.Fatalf("empty report = %q", got)
	}

	p.Add(EnqueueLinkCAS, 10)
	p.Add(StealMiss, 3)
	p.Observe(Enqueue, 200*time.Nanosecond)
	snap := p.Snapshot()
	got := snap.Report(20)
	for _, want := range []string{
		"enq link CAS failed (E9)",
		"steal miss",
		"0.5000/op", // 10 events over 20 ops
		"enqueue latency",
		"p99",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("report missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "dequeue latency") {
		t.Fatalf("report shows empty dequeue histogram:\n%s", got)
	}
}

func TestSiteAndOpStrings(t *testing.T) {
	for s := 0; s < NumSites; s++ {
		if str := Site(s).String(); strings.HasPrefix(str, "Site(") {
			t.Fatalf("site %d has no label", s)
		}
	}
	if str := Site(200).String(); str != "Site(200)" {
		t.Fatalf("unknown site label = %q", str)
	}
	for o := 0; o < NumOps; o++ {
		if str := Op(o).String(); strings.HasPrefix(str, "Op(") {
			t.Fatalf("op %d has no label", o)
		}
	}
	if str := Op(9).String(); str != "Op(9)" {
		t.Fatalf("unknown op label = %q", str)
	}
}

// TestStripesSpreadGoroutines sanity-checks the stack-address hash: a batch
// of goroutines adding concurrently must still sum exactly (striping is an
// implementation detail that must never lose counts).
func TestStripesSpreadGoroutines(t *testing.T) {
	p := NewProbe()
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.Add(DequeueHeadCAS, 1)
			}
		}()
	}
	wg.Wait()
	if got := p.Site(DequeueHeadCAS); got != 32*1000 {
		t.Fatalf("Site = %d, want %d", got, 32*1000)
	}
}
