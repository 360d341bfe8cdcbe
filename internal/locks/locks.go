// Package locks provides the lock the paper's lock-based queues run on:
// test-and-test_and_set with bounded exponential backoff, in a yielding form
// (TTAS) and in the pure-spin form the paper measured (TTASPure).
//
// Both satisfy sync.Locker, so the two-lock queue and the single-lock queue
// are parameterised over them, and sync.Mutex can be dropped in as an
// additional comparator.
//
// TTAS's backoff yields the processor after several consecutive failures;
// TTASPure's never does. On a multiprogrammed system (more runnable
// goroutines than GOMAXPROCS) a pure spin can burn its whole scheduling
// quantum waiting for a preempted lock holder; yielding is the spin-lock
// analogue of the paper's observation that blocking algorithms need
// scheduler cooperation.
package locks

import (
	"sync/atomic"

	"msqueue/internal/backoff"
	"msqueue/internal/inject"
	"msqueue/internal/metrics"
	"msqueue/internal/pad"
)

// PointLockAcquired is the trace point TTAS and TTASPure fire immediately
// after winning the lock. A goroutine crash-stopped here halts while
// *holding* the lock — the paper's inopportune moment for any lock-based
// algorithm — so the chaos engine can demonstrate stall propagation without
// the enclosing queue's cooperation.
const PointLockAcquired inject.Point = "lock:acquired"

// TTAS is a test-and-test_and_set lock with bounded exponential backoff,
// the lock used for the paper's lock-based measurements. The read-only probe
// spins in the local cache; the atomic exchange is attempted only when the
// lock is observed free, and contention feeds the backoff.
type TTAS struct {
	state atomic.Int32
	_     pad.Line
	probe *metrics.Probe
	tr    inject.Tracer
}

// SetProbe installs a contention probe; every observed-held backoff episode
// reports one metrics.LockSpin. Call before sharing the lock.
func (l *TTAS) SetProbe(p *metrics.Probe) { l.probe = p }

// SetTracer installs a fault-injection tracer (PointLockAcquired). Call
// before sharing the lock.
func (l *TTAS) SetTracer(tr inject.Tracer) { l.tr = tr }

// Lock acquires the lock.
func (l *TTAS) Lock() {
	var bo backoff.Backoff
	for {
		if l.state.Load() == 0 && l.state.Swap(1) == 0 {
			if l.tr != nil {
				l.tr.At(PointLockAcquired)
			}
			return
		}
		l.probe.Add(metrics.LockSpin, 1)
		bo.Wait()
	}
}

// Unlock releases the lock.
func (l *TTAS) Unlock() {
	l.state.Store(0)
}

// TTASPure is the test-and-test_and_set lock exactly as the paper ran it:
// bounded exponential backoff but *no* scheduler yield. On a dedicated
// machine it behaves like TTAS; on a multiprogrammed one a waiter can burn
// its entire scheduling quantum spinning against a preempted holder — the
// degradation mechanism behind the paper's Figures 4 and 5. It exists for
// the multiprogramming experiments; production code should prefer TTAS.
// Only Lock differs; SetProbe, SetTracer and Unlock are TTAS's.
type TTASPure struct {
	TTAS
}

// Lock acquires the lock, spinning with backoff but never yielding.
func (l *TTASPure) Lock() {
	var bo backoff.Backoff
	for {
		if l.state.Load() == 0 && l.state.Swap(1) == 0 {
			if l.tr != nil {
				l.tr.At(PointLockAcquired)
			}
			return
		}
		l.probe.Add(metrics.LockSpin, 1)
		bo.WaitNoYield()
	}
}
