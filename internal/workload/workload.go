// Package workload reproduces the paper's benchmark workload: each process
// repeatedly enqueues an item, performs "other work", dequeues an item, and
// performs "other work" again. The other work is "approximately 6 µs of
// spinning in an empty loop; it serves to make the experiments more
// realistic by preventing long runs of queue operations by the same process
// (which would display overly-optimistic performance due to an
// unrealistically low cache miss rate)" (section 4).
package workload

import (
	"time"
)

// DefaultOtherWork is the paper's spin duration between queue operations.
const DefaultOtherWork = 6 * time.Microsecond

// Spinner busy-spins for a calibrated duration without involving the
// scheduler or the clock on the hot path. A Spinner is immutable and safe
// for concurrent use.
type Spinner struct {
	itersPerWork int
}

// Calibrate measures how many spin iterations the current machine runs in
// d and returns a Spinner whose Spin method burns approximately d of CPU
// time. A zero or negative d yields a no-op spinner.
func Calibrate(d time.Duration) *Spinner {
	if d <= 0 {
		return &Spinner{}
	}
	const probe = 1 << 16
	var elapsed time.Duration
	// Repeat the probe until it runs long enough to time reliably.
	iters := probe
	for {
		start := time.Now()
		spin(iters)
		elapsed = time.Since(start)
		if elapsed >= time.Millisecond {
			break
		}
		iters *= 2
	}
	perIter := float64(elapsed) / float64(iters)
	n := int(float64(d) / perIter)
	if n < 1 {
		n = 1
	}
	return &Spinner{itersPerWork: n}
}

// Spin performs one unit of "other work".
func (s *Spinner) Spin() {
	spin(s.itersPerWork)
}

func spin(n int) {
	var acc uint64 = 1
	for i := 0; i < n; i++ {
		acc = acc*2862933555777941757 + 3037000493
	}
	sink(acc)
}

// sink defeats dead-code elimination of the spin loop: the compiler must
// materialise acc to pass it to a call it cannot inline. No shared memory
// is touched, so spinning processes do not perturb each other.
//
//go:noinline
func sink(uint64) {}
