// Benchmarks regenerating the paper's evaluation in testing.B form.
//
// The paper has three figures and no tables; each figure is "net execution
// time for one million enqueue/dequeue pairs" versus processor count:
//
//   - BenchmarkFigure3 — dedicated system (1 process per processor)
//   - BenchmarkFigure4 — multiprogrammed, 2 processes per processor
//   - BenchmarkFigure5 — multiprogrammed, 3 processes per processor
//
// Each emits ns/pair for every contender at several processor counts; the
// cmd/qbench tool runs the same sweep with the paper's exact parameters
// (10^6 pairs, ~6 µs of "other work") and prints the full curves. The
// remaining benchmarks are this reproduction's ablations (DESIGN.md A-1..A-3).
package msqueue_test

import (
	"fmt"
	"runtime"
	"testing"

	"msqueue"
	"msqueue/internal/algorithms"
	"msqueue/internal/baseline"
	"msqueue/internal/core"
	"msqueue/internal/harness"
	"msqueue/internal/linearizability"
	"msqueue/internal/queue"
	"msqueue/internal/ring"
	"msqueue/internal/sharded"
)

// benchFigure runs one figure's sweep: for each paper algorithm and each
// processor count, b.N enqueue/dequeue pairs through the paper's workload
// loop. The "other work" spin is disabled so ns/op measures the queue
// operations themselves (qbench applies the paper's 6 µs).
func benchFigure(b *testing.B, procsPerProcessor int) {
	processorCounts := []int{1, 2, 4, 8}
	for _, info := range algorithms.Paper() {
		for _, p := range processorCounts {
			b.Run(fmt.Sprintf("%s/procs=%d", info.Name, p), func(b *testing.B) {
				b.ReportAllocs()
				res, err := harness.Run(harness.Config{
					New:               info.New,
					Processors:        p,
					ProcsPerProcessor: procsPerProcessor,
					Pairs:             b.N,
					OtherWork:         -1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Total.Nanoseconds())/float64(b.N), "ns/pair")
			})
		}
	}
}

func BenchmarkFigure3Dedicated(b *testing.B)         { benchFigure(b, 1) }
func BenchmarkFigure4TwoPerProcessor(b *testing.B)   { benchFigure(b, 2) }
func BenchmarkFigure5ThreePerProcessor(b *testing.B) { benchFigure(b, 3) }

// BenchmarkQueues measures raw per-pair cost of every catalog algorithm
// under RunParallel's default parallelism — the per-operation comparison
// behind ablation A-2 (MS vs PLJ snapshot overhead) and more.
func BenchmarkQueues(b *testing.B) {
	for _, info := range algorithms.All() {
		if info.Name == "stone" {
			continue // unsafe under free-form concurrency by design
		}
		b.Run(info.Name, func(b *testing.B) {
			q := info.New(1 << 16)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					q.Enqueue(i)
					q.Dequeue()
					i++
				}
			})
		})
	}
}

// BenchmarkMSVariants is ablation A-3: the GC-reclaimed MS queue against
// the tagged free-list variant (explicit reuse, counters) and the same
// split for the two-lock queue.
func BenchmarkMSVariants(b *testing.B) {
	for _, name := range []string{"ms", "ms-tagged", "two-lock", "two-lock-tagged"} {
		info, err := algorithms.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			q := info.New(1 << 16)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					q.Enqueue(i)
					q.Dequeue()
					i++
				}
			})
		})
	}
}

// BenchmarkMSEpoch is the safe-memory-reclamation apples-to-apples: the
// same MS algorithm under its four reclamation schemes — GC (ms), tagged
// counters (ms-tagged, the paper's scheme: one counter update per CAS),
// hazard pointers (ms-hazard: announce + re-validate per dereference) and
// epochs (ms-epoch: one pin/unpin per operation). The per-op deltas are
// the cost of each ABA defence; EXPERIMENTS.md records the table.
func BenchmarkMSEpoch(b *testing.B) {
	for _, name := range []string{"ms", "ms-tagged", "ms-hazard", "ms-epoch"} {
		info, err := algorithms.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			q := info.New(1 << 16)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					q.Enqueue(i)
					q.Dequeue()
					i++
				}
			})
		})
	}
}

// BenchmarkAblationBackoff is ablation A-1: the same single-lock queue
// under the catalog's three lockers — TTAS with yielding backoff, TTAS with
// the paper's pure (non-yielding) backoff, and the runtime mutex.
func BenchmarkAblationBackoff(b *testing.B) {
	for _, name := range []string{"single-lock", "single-lock-pure", "single-lock-mutex"} {
		info, err := algorithms.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			q := info.New(0)
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					q.Enqueue(i)
					q.Dequeue()
					i++
				}
			})
		})
	}
}

// BenchmarkUncontended measures the single-goroutine fast path: the cost a
// non-concurrent caller pays for each algorithm's concurrency machinery.
func BenchmarkUncontended(b *testing.B) {
	for _, info := range algorithms.Paper() {
		b.Run(info.Name, func(b *testing.B) {
			q := info.New(1 << 16)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.Enqueue(i)
				q.Dequeue()
			}
		})
	}
}

// BenchmarkBurstDrain measures enqueue-heavy then dequeue-heavy phases
// (batch producers, then batch consumers), the pattern of the pipeline
// example.
func BenchmarkBurstDrain(b *testing.B) {
	const batch = 1024
	for _, info := range algorithms.Paper() {
		b.Run(info.Name, func(b *testing.B) {
			q := info.New(1 << 16)
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					q.Enqueue(j)
				}
				for j := 0; j < batch; j++ {
					q.Dequeue()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch*2), "ns/op-amortised")
		})
	}
}

// BenchmarkLinearizabilityCheck measures the fast checker on recorder
// histories, confirming it scales to the million-operation histories the
// stress tests produce.
func BenchmarkLinearizabilityCheck(b *testing.B) {
	info, err := algorithms.Lookup("ms")
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("ops=%d", size), func(b *testing.B) {
			h := recordedHistory(info.New, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if vs := linearizability.Check(h); len(vs) != 0 {
					b.Fatalf("unexpected violations: %v", vs[0])
				}
			}
		})
	}
}

func recordedHistory(newQueue func(int) queue.Queue[int], size int) linearizability.History {
	rec := linearizability.NewRecorder(newQueue(size), size)
	for i := 0; i < size/2; i++ {
		rec.Enqueue(0)
		rec.Dequeue(0)
	}
	return rec.History()
}

// BenchmarkSPSC is ablation A-6: one producer and one consumer, the regime
// in which Lamport's wait-free ring is applicable. It bounds what the MPMC
// algorithms pay for their generality.
func BenchmarkSPSC(b *testing.B) {
	b.Run("lamport", func(b *testing.B) {
		q := baseline.NewLamport[int](1024)
		benchSPSC(b, func(v int) {
			for !q.TryEnqueue(v) {
				runtime.Gosched()
			}
		}, q.Dequeue)
	})
	b.Run("ms", func(b *testing.B) {
		q := core.NewMS[int]()
		benchSPSC(b, q.Enqueue, q.Dequeue)
	})
	b.Run("two-lock", func(b *testing.B) {
		q := core.NewTwoLock[int](nil, nil)
		benchSPSC(b, q.Enqueue, q.Dequeue)
	})
	b.Run("channel", func(b *testing.B) {
		ch := make(chan int, 1024)
		benchSPSC(b, func(v int) { ch <- v }, func() (int, bool) {
			select {
			case v := <-ch:
				return v, true
			default:
				return 0, false
			}
		})
	})
}

func benchSPSC(b *testing.B, enq func(int), deq func() (int, bool)) {
	b.ReportAllocs()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got := 0; got < b.N; {
			if _, ok := deq(); ok {
				got++
				continue
			}
			runtime.Gosched()
		}
	}()
	for i := 0; i < b.N; i++ {
		enq(i)
	}
	<-done
}

// BenchmarkBlockingWrapper measures the public Blocking wrapper in a
// produce/consume pipeline: the enqueue stays lock-free; the wrapper's
// mutex is touched only for sleeping and waking.
func BenchmarkBlockingWrapper(b *testing.B) {
	q := msqueue.NewBlocking[int]()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			if _, ok := q.DequeueWait(); !ok {
				return
			}
		}
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(i)
	}
	<-done
}

// BenchmarkShardedShardCount sweeps the shard count for the relaxed
// sharded queue — 1, 2, 4 shards and one per GOMAXPROCS — against the
// unsharded MS queue as the strict-FIFO baseline, under RunParallel
// enqueue/dequeue pairs. With a single shard the sharded queue should
// track the MS queue plus a small dispatch overhead; with more shards
// the contention on any one MS queue drops (visible on multi-core
// machines; on one core all shard counts share a single CAS stream).
func BenchmarkShardedShardCount(b *testing.B) {
	b.Run("ms-baseline", func(b *testing.B) {
		q := core.NewMS[int]()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				q.Enqueue(i)
				q.Dequeue()
				i++
			}
		})
	})
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		counts = append(counts, g)
	}
	for _, n := range counts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			q := sharded.New[int](n)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					q.Enqueue(i)
					q.Dequeue()
					i++
				}
			})
		})
	}
}

// BenchmarkRingPairs compares the bounded SCQ-style ring against the
// queues a user would weigh it against — the unbounded MS queue, its
// tagged bounded variant, the relaxed sharded queue and the runtime's
// channel — under RunParallel enqueue/dequeue pairs. The ring replaces
// the MS queue's two contended CAS words with FAA position reservation;
// on a multi-core machine that difference is the whole point, on one
// core the rows isolate per-operation overhead.
func BenchmarkRingPairs(b *testing.B) {
	for _, name := range []string{"ring", "ms", "ms-tagged", "sharded", "channel"} {
		info, err := algorithms.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			q := info.New(1 << 16)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					q.Enqueue(i)
					q.Dequeue()
					i++
				}
			})
		})
	}
}

// BenchmarkRingBatch measures the amortized per-element cost of the batch
// operations across batch sizes spanning the internal 32-index chunk: one
// goroutine, fill then drain, so the number isolates reservation traffic
// (one FAA round trip per element for singles, chunk-pipelined for
// batches) from contention.
func BenchmarkRingBatch(b *testing.B) {
	for _, size := range []int{1, 8, 32, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			q := ring.New[int](1 << 12)
			vs := make([]int, size)
			for i := range vs {
				vs[i] = i
			}
			dst := make([]int, size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for sent := 0; sent < size; {
					sent += q.EnqueueBatch(vs[sent:])
				}
				for got := 0; got < size; {
					got += q.DequeueBatch(dst[got:])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size*2), "ns/op-amortised")
		})
	}
}

// BenchmarkRingBatchParallel pits batched against element-at-a-time
// transfer under RunParallel: each iteration moves 64 values through the
// ring either as 128 single operations or as one EnqueueBatch/DequeueBatch
// pair. The gap is what the batch API's amortized reservations buy under
// concurrent traffic.
func BenchmarkRingBatchParallel(b *testing.B) {
	const batch = 64
	b.Run("singles", func(b *testing.B) {
		q := ring.New[int](1 << 16)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				for j := 0; j < batch; j++ {
					q.Enqueue(j)
				}
				for j := 0; j < batch; j++ {
					q.Dequeue()
				}
			}
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch*2), "ns/op-amortised")
	})
	b.Run("batched", func(b *testing.B) {
		q := ring.New[int](1 << 16)
		vs := make([]int, batch)
		for i := range vs {
			vs[i] = i
		}
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			dst := make([]int, batch)
			for pb.Next() {
				for sent := 0; sent < batch; {
					sent += q.EnqueueBatch(vs[sent:])
				}
				for got := 0; got < batch; {
					got += q.DequeueBatch(dst[got:])
				}
			}
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch*2), "ns/op-amortised")
	})
}

// BenchmarkRingBoundary crosses the full/empty boundary every iteration on
// a small ring: fill to capacity, hit one refusal, drain to empty. This is
// the regime the threshold counter and tail catch-up exist for; the
// number is the amortized cost of an element transfer that lives next to
// the boundary rather than in the steady middle.
func BenchmarkRingBoundary(b *testing.B) {
	const capacity = 64
	q := ring.New[int](capacity)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < capacity; j++ {
			q.Enqueue(j)
		}
		if q.TryEnqueue(-1) {
			b.Fatal("TryEnqueue succeeded on a full ring")
		}
		for j := 0; j < capacity; j++ {
			q.Dequeue()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*capacity*2), "ns/op-amortised")
}

// BenchmarkShardedProducerHandle measures the contractual enqueue path:
// a pinned Producer handle versus the pooled plain Enqueue. The handle
// skips the sync.Pool round trip, so it should be at least as fast.
func BenchmarkShardedProducerHandle(b *testing.B) {
	b.Run("plain-enqueue", func(b *testing.B) {
		q := sharded.New[int](4)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				q.Enqueue(i)
				q.Dequeue()
				i++
			}
		})
	})
	b.Run("producer-handle", func(b *testing.B) {
		q := sharded.New[int](4)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			p := q.Producer()
			i := 0
			for pb.Next() {
				p.Enqueue(i)
				q.Dequeue()
				i++
			}
		})
	})
}

// BenchmarkShardedStealPath isolates the work-stealing slow path: every
// item lands in one shard via a pinned producer that is deliberately NOT
// the consumer's home shard (producer handles are handed out round-robin,
// so the second handle pins to shard 1 while the first pooled consumer
// token homes on shard 0). Every dequeue then misses home, scans, and
// steals. Compare with shards=1, where producer and consumer necessarily
// share the only shard and every dequeue is a home hit.
func BenchmarkShardedStealPath(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			q := sharded.New[int](n)
			q.Producer() // discard the shard-0 handle
			p := q.Producer()
			b.ReportAllocs()
			const batch = 256
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					p.Enqueue(j)
				}
				for j := 0; j < batch; j++ {
					if _, ok := q.Dequeue(); !ok {
						b.Fatal("lost item under single-goroutine use")
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch*2), "ns/op-amortised")
		})
	}
}
