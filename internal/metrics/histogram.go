package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumLatencyBuckets is one bucket per power of two of nanoseconds: bucket
// b holds durations d with bits.Len64(ns) == b, i.e. ns in [2^(b-1), 2^b).
// Bucket 0 holds zero-length observations; 63 buckets cover every
// representable duration, so nothing is clipped. The bound is exported —
// with BucketUpperBound and BucketMidpoint — so renderers (the stats
// tables, the telemetry exporter) derive bucket geometry from one source
// of truth instead of re-deriving the log-bucket rule.
const NumLatencyBuckets = 64

// histStripes splits each bucket array across several copies so that
// goroutines observing similar latencies (the common case: a tight
// distribution hits one or two buckets) do not serialise on one atomic
// word. Must be a power of two.
const histStripes = 4

// Histogram is a lock-free log-bucketed latency histogram. The zero value
// is ready to use. Observe is safe for concurrent use; Snapshot may run
// concurrently with writers and is exact at quiescence.
//
// Logarithmic buckets trade precision for a bounded, allocation-free,
// wait-free record path: Observe is one bits.Len64 and one atomic add.
// Quantiles are therefore resolved only to the containing power-of-two
// bucket (the snapshot reports the bucket midpoint) — amply precise for
// "did p99 blow up under contention", which is what the harness asks.
type Histogram struct {
	buckets [histStripes][NumLatencyBuckets]atomic.Int64
}

// Observe records one duration. Negative durations (clock steps) count as
// zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.buckets[stripeIdx()&(histStripes-1)][bits.Len64(uint64(ns))].Add(1)
}

// Snapshot sums the stripes into a plain bucket array.
func (h *Histogram) Snapshot() LatencySnapshot {
	var snap LatencySnapshot
	for s := 0; s < histStripes; s++ {
		for b := 0; b < NumLatencyBuckets; b++ {
			n := h.buckets[s][b].Load()
			snap.Buckets[b] += n
			snap.Count += n
		}
	}
	return snap
}

// LatencySnapshot is a quiescent view of one histogram.
type LatencySnapshot struct {
	// Count is the total number of observations.
	Count int64
	// Buckets[b] is the number of observations with bits.Len64(ns) == b,
	// i.e. durations in [2^(b-1), 2^b) nanoseconds (bucket 0 is exactly 0).
	Buckets [NumLatencyBuckets]int64
}

// Quantile returns the q-th quantile (0..1) as the midpoint of the bucket
// containing that rank, or 0 for an empty histogram. Quantile(1) is the
// upper bound of the slowest non-empty bucket.
func (l LatencySnapshot) Quantile(q float64) time.Duration {
	if l.Count == 0 {
		return 0
	}
	switch {
	case q < 0:
		q = 0
	case q > 1:
		q = 1
	}
	rank := int64(q * float64(l.Count))
	if rank >= l.Count {
		rank = l.Count - 1
	}
	var seen int64
	for b := 0; b < NumLatencyBuckets; b++ {
		seen += l.Buckets[b]
		if seen > rank {
			if q >= 1 {
				return BucketUpperBound(b)
			}
			return BucketMidpoint(b)
		}
	}
	return BucketUpperBound(NumLatencyBuckets - 1)
}

// BucketMidpoint returns the midpoint of bucket b's range [2^(b-1), 2^b) —
// the value Quantile reports for observations that landed in b.
func BucketMidpoint(b int) time.Duration {
	if b <= 0 {
		return 0
	}
	lo := int64(1) << (b - 1)
	return time.Duration(lo + lo/2)
}

// BucketUpperBound returns the inclusive upper bound of bucket b: the
// largest duration that Observe files under it. The last bucket's bound is
// the largest representable duration.
func BucketUpperBound(b int) time.Duration {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return time.Duration(int64(^uint64(0) >> 1))
	}
	return time.Duration(int64(1)<<b - 1)
}
