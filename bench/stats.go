package main

import (
	"math"
	"sort"
	"sync"
)

// nearestRank returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank definition: the smallest sample such that at least q of
// all samples are at or below it. Every sample is kept, so the result is
// one of the measured values, never an interpolation or a bucket midpoint.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// summary is a metric's distribution over trials.
type summary struct {
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	Trials int     `json:"trials"`
}

func summarize(vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{Median: median(s), P25: nearestRank(s, 0.25), P75: nearestRank(s, 0.75), Trials: len(s)}
}

// median of sorted: the mean of the two middle samples for an even count,
// so a metric measured over an even number of trials does not lean on the
// lower one.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// chunkLen is the number of int64 samples per buffer chunk: 32 KiB, the
// largest small-object size class, so the runtime accounts one chunk as
// exactly one allocation of exactly chunkLen*8 bytes.
const chunkLen = 4096

// chunkPool hands out sample chunks. Chunks are reserved before a measured
// window opens, so recording a sample costs the system under test no
// allocation; a chunk allocated inside the window anyway is counted in
// grown, and the trial subtracts it from the process's allocation counts.
type chunkPool struct {
	mu    sync.Mutex
	free  [][]int64
	grown int
}

func (p *chunkPool) reserve(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.free) < n {
		p.free = append(p.free, make([]int64, 0, chunkLen))
	}
}

func (p *chunkPool) get() []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	p.grown++
	return make([]int64, 0, chunkLen)
}

// samples is an append-only list of int64 owned by one goroutine, stored
// in pool chunks so it never copies or reallocates what it holds.
type samples struct {
	pool   *chunkPool
	chunks [][]int64
	n      int
}

func newSamples(pool *chunkPool) samples {
	// Room for 1024 chunk headers (4M samples) so the header slice does
	// not grow while measuring either.
	return samples{pool: pool, chunks: make([][]int64, 0, 1024)}
}

func (s *samples) add(v int64) {
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == chunkLen {
		s.chunks = append(s.chunks, s.pool.get())
		last++
	}
	s.chunks[last] = append(s.chunks[last], v)
	s.n++
}

func (s *samples) each(fn func(int64)) {
	for _, c := range s.chunks {
		for _, v := range c {
			fn(v)
		}
	}
}

// floats returns every sample as float64, scaled by k.
func (s *samples) floats(k float64) []float64 {
	out := make([]float64, 0, s.n)
	s.each(func(v int64) { out = append(out, float64(v)*k) })
	return out
}
