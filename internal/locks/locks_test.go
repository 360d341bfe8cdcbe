package locks

import (
	"runtime"
	"sync"
	"testing"

	"msqueue/internal/inject"
	"msqueue/internal/metrics"
)

type lockCase struct {
	name string
	lock sync.Locker
}

// allLocks returns a fresh, unlocked instance of each lock in the package,
// plus the runtime mutex the queues also accept.
func allLocks() []lockCase {
	return []lockCase{
		{"ttas", new(TTAS)},
		{"ttas-pure", new(TTASPure)},
		{"mutex", new(sync.Mutex)},
	}
}

type spinLockCase struct {
	name string
	lock interface {
		sync.Locker
		SetProbe(*metrics.Probe)
		SetTracer(inject.Tracer)
	}
}

// spinLocks returns a fresh, unlocked instance of each instrumented lock.
func spinLocks() []spinLockCase {
	return []spinLockCase{
		{"ttas", new(TTAS)},
		{"ttas-pure", new(TTASPure)},
	}
}

func TestMutualExclusion(t *testing.T) {
	for _, tc := range allLocks() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const (
				workers = 8
				rounds  = 10000
			)
			var (
				counter int // deliberately unsynchronised; the lock must protect it
				wg      sync.WaitGroup
			)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						tc.lock.Lock()
						counter++
						tc.lock.Unlock()
					}
				}()
			}
			wg.Wait()
			if counter != workers*rounds {
				t.Fatalf("counter = %d, want %d: mutual exclusion violated", counter, workers*rounds)
			}
		})
	}
}

func TestSequentialReacquire(t *testing.T) {
	for _, tc := range allLocks() {
		for i := 0; i < 100; i++ {
			tc.lock.Lock()
			tc.lock.Unlock() //nolint:staticcheck // exercising bare handoff
		}
	}
}

func TestCriticalSectionSeesPriorWrites(t *testing.T) {
	// The lock must order memory: a value written inside one critical
	// section is visible in the next, on every lock type.
	for _, tc := range allLocks() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var (
				data [64]int
				sum  int
				wg   sync.WaitGroup
			)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 1000; i++ {
						tc.lock.Lock()
						data[(w*1000+i)%64]++
						sum++
						tc.lock.Unlock()
					}
				}(w)
			}
			wg.Wait()
			total := 0
			for _, d := range data {
				total += d
			}
			if total != 4000 || sum != 4000 {
				t.Fatalf("total = %d, sum = %d, want 4000", total, sum)
			}
		})
	}
}

// TestProbeCountsLockSpins pins the LockSpin site deterministically for
// each lock: while the lock is held, a second acquirer must record at least
// one failed attempt before it gets the lock.
func TestProbeCountsLockSpins(t *testing.T) {
	for _, tc := range spinLocks() {
		t.Run(tc.name, func(t *testing.T) {
			p := metrics.NewProbe()
			tc.lock.SetProbe(p)
			tc.lock.Lock()

			acquired := make(chan struct{})
			go func() {
				tc.lock.Lock()
				close(acquired)
			}()
			// Wait until the contender has observably failed at least once;
			// each lock counts a failed attempt before it backs off or
			// yields, so this terminates even on GOMAXPROCS=1.
			for p.Site(metrics.LockSpin) == 0 {
				runtime.Gosched()
			}
			tc.lock.Unlock()
			<-acquired
			tc.lock.Unlock()

			if got := p.Site(metrics.LockSpin); got < 1 {
				t.Fatalf("LockSpin = %d, want >= 1", got)
			}
		})
	}
}

// TestTracerCountsEachAcquisition pins PointLockAcquired, the chaos
// adversary's "holding the lock" crash-stop point: every Lock, contended or
// not, must reach it exactly once, and failed attempts must not.
func TestTracerCountsEachAcquisition(t *testing.T) {
	for _, tc := range spinLocks() {
		t.Run(tc.name, func(t *testing.T) {
			var c inject.Counter
			tc.lock.SetTracer(&c)
			const (
				workers = 4
				rounds  = 500
			)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						tc.lock.Lock()
						tc.lock.Unlock()
					}
				}()
			}
			wg.Wait()
			if got := c.Count(PointLockAcquired); got != workers*rounds {
				t.Fatalf("%s visits = %d, want %d (one per Lock)", PointLockAcquired, got, workers*rounds)
			}
		})
	}
}

func BenchmarkLocks(b *testing.B) {
	for _, tc := range allLocks() {
		b.Run(tc.name, func(b *testing.B) {
			var shared int
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					tc.lock.Lock()
					shared++
					tc.lock.Unlock()
				}
			})
			_ = shared
		})
	}
}

func BenchmarkTTASUncontended(b *testing.B) {
	l := new(TTAS)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lock()
		l.Unlock()
	}
}
