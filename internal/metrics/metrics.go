// Package metrics is the contention-observability layer shared by every
// queue in this repository: per-site CAS-retry and lock-spin counters plus
// a lock-free, log-bucketed latency histogram per operation type.
//
// The paper's figures report only net wall-clock time, which shows *that* a
// curve bends under contention but not *why*. The counters here expose the
// mechanisms behind the bends — how often an enqueue lost the link CAS
// (E9), how often a dequeuer had to help a lagging tail (D9/E12), how long
// a lock acquisition spun — the same internals the MS queue's modern
// successors measure when motivating their designs (SCQ's scalability
// analysis, wCQ's bounded-retry accounting; see PAPERS.md).
//
// # Design constraints
//
//   - Zero dependencies beyond the standard library.
//   - Nil-safe: every method on *Probe has a pointer-check fast path, so
//     instrumented algorithms hold a possibly-nil probe and call it
//     unconditionally. With a nil probe an event costs one predictable
//     branch, and the hot *success* paths of the algorithms emit no events
//     at all — the instrumentation is ~free when disabled (verified by
//     BenchmarkMSProbe in internal/core against the figure benchmarks).
//   - Lock-free when enabled: a probe shared by every goroutine of a run
//     must not serialise the very contention it measures. Counters and
//     histogram buckets are plain atomics, striped across cache-padded
//     cells indexed by a hash of the calling goroutine's stack address —
//     the practical approximation of per-goroutine counters available
//     without runtime support. Snapshot sums the stripes.
package metrics

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"msqueue/internal/pad"
)

// Site identifies one instrumented loop site, named after the paper's
// pseudo-code line labels where one exists. A count at a site is one extra
// loop iteration (one retry) attributable to that cause.
type Site uint8

const (
	// EnqueueLinkCAS counts failed E9 link compare-and-swaps: another
	// enqueuer linked its node first. The paper's non-blocking argument in
	// section 3.3 rests on every such failure implying someone else's
	// completed operation.
	EnqueueLinkCAS Site = iota
	// EnqueueTailSwing counts E12 helping swings: the enqueuer observed a
	// lagging Tail and advanced it on the slow enqueuer's behalf.
	EnqueueTailSwing
	// EnqueueInconsistent counts E7 consistency re-reads: Tail moved
	// between the read and the re-validation.
	EnqueueInconsistent
	// DequeueHeadCAS counts failed D12 head compare-and-swaps: another
	// dequeuer won the race for the same node.
	DequeueHeadCAS
	// DequeueTailSwing counts D9 helping swings: a dequeuer found Head ==
	// Tail with a non-nil next and advanced the lagging Tail.
	DequeueTailSwing
	// DequeueInconsistent counts D5 consistency re-reads.
	DequeueInconsistent
	// SnapshotRetry counts re-taken consistent snapshots (PLJ's two-variable
	// snapshot loop) and failed SafeRead validations (Valois).
	SnapshotRetry
	// RingEnqSlot counts extra enqueue iterations in the SCQ-style bounded
	// ring (internal/ring): a fetch-and-add reserved a tail position whose
	// slot could not be claimed — either the claim CAS lost to a concurrent
	// slot transition or the slot still held a previous cycle's entry — so
	// the enqueuer moved on to the next position.
	RingEnqSlot
	// RingDeqSlot counts extra dequeue iterations in the bounded ring: the
	// reserved head position's slot was not consumable (an empty slot whose
	// cycle had to be advanced, a lost consume CAS, or an entry left behind
	// by a slow enqueuer that had to be marked unsafe).
	RingDeqSlot
	// RingCatchup counts tail catch-up swings in the bounded ring: a
	// dequeuer that overran the tail dragged it forward so head and tail
	// cannot drift apart unboundedly while the ring is empty — the ring's
	// analogue of the MS queue's tail-lag helping (E12/D9).
	RingCatchup
	// LockSpin counts one observed-held probe of a lock acquisition (the
	// TTAS family counts one per backoff episode) and, for the
	// lock-free-but-blocking MC queue, one wait iteration on a
	// claimed-but-unlinked suffix.
	LockSpin
	// StealHit counts dequeues satisfied by stealing from a non-home shard
	// (internal/sharded).
	StealHit
	// StealMiss counts steal probes that found the victim shard empty.
	StealMiss
	// WireEnq counts elements acknowledged over the network (internal/
	// server): ENQ frames plus accepted ENQ_BATCH elements.
	WireEnq
	// WireDeq counts elements delivered over the network: VALUE frames
	// plus VALUES elements.
	WireDeq
	// WireEmpty counts EMPTY responses — dequeue frames that observed an
	// empty queue.
	WireEmpty
	// WireRetry counts RETRY responses: enqueues refused because the
	// bounded backing queue was full or the server was draining. A high
	// rate here is backpressure working — the queue's capacity bound being
	// enforced against the network instead of memory growth.
	WireRetry
	// WireControl counts control-plane frames served (STATS and PING).
	WireControl
	// EpochPin counts critical-section entries into an epoch reclamation
	// domain (internal/epoch): one per queue operation on ms-epoch.
	EpochPin
	// EpochAdvance counts successful global-epoch advances. A rate near
	// zero while EpochPin climbs means a pinned participant is stalling
	// reclamation (the fallback-allocation scenario).
	EpochAdvance
	// EpochFlush counts limbo handles handed back to the free function once
	// the epoch rule proved them unreachable.
	EpochFlush
	// NetFault counts faults injected by the netchaos proxy
	// (internal/netchaos): resets, torn writes, corruptions, latency,
	// blackholes. Zero outside fault-injection runs.
	NetFault
	// WireCorrupt counts frames the server rejected with a checksum
	// mismatch or bad magic byte (wire.ErrChecksum / wire.ErrBadMagic):
	// corruption *detected* — the connection is torn down instead of the
	// bytes being misread as a frame. Compare against NetFault's corrupt
	// injections in a netchaos sweep.
	WireCorrupt

	// NumSites is the number of instrumented sites. The epoch and netchaos
	// sites sit after the wire sites so the Retries() range stays
	// contiguous.
	NumSites = int(WireCorrupt) + 1
)

// String returns the report label of the site.
func (s Site) String() string {
	switch s {
	case EnqueueLinkCAS:
		return "enq link CAS failed (E9)"
	case EnqueueTailSwing:
		return "enq tail-lag swing (E12)"
	case EnqueueInconsistent:
		return "enq inconsistent re-read (E7)"
	case DequeueHeadCAS:
		return "deq head CAS failed (D12)"
	case DequeueTailSwing:
		return "deq tail-lag swing (D9)"
	case DequeueInconsistent:
		return "deq inconsistent re-read (D5)"
	case SnapshotRetry:
		return "snapshot/safe-read retry"
	case RingEnqSlot:
		return "ring enq slot retry (SCQ)"
	case RingDeqSlot:
		return "ring deq slot retry (SCQ)"
	case RingCatchup:
		return "ring tail catch-up swing (SCQ)"
	case LockSpin:
		return "lock-spin / blocked wait"
	case StealHit:
		return "steal hit"
	case StealMiss:
		return "steal miss"
	case WireEnq:
		return "wire enq elements acked"
	case WireDeq:
		return "wire deq elements delivered"
	case WireEmpty:
		return "wire deq found empty"
	case WireRetry:
		return "wire RETRY sent (backpressure)"
	case WireControl:
		return "wire control frames (STATS/PING)"
	case EpochPin:
		return "epoch pins"
	case EpochAdvance:
		return "epoch advances"
	case EpochFlush:
		return "epoch limbo handles flushed"
	case NetFault:
		return "net faults injected (netchaos)"
	case WireCorrupt:
		return "wire corruption detected (checksum)"
	default:
		return fmt.Sprintf("Site(%d)", uint8(s))
	}
}

// Label returns the site's stable snake_case token for machine-readable
// exports — the telemetry exporter's Prometheus series labels. Unlike
// String (a human report label, free to change), a Label is a wire
// contract: dashboards and scrape rules key on it, so existing tokens must
// never be renamed, only new ones appended (TestSiteOrderLockdown pins
// both the tokens and the enum order).
func (s Site) Label() string {
	switch s {
	case EnqueueLinkCAS:
		return "enq_link_cas"
	case EnqueueTailSwing:
		return "enq_tail_swing"
	case EnqueueInconsistent:
		return "enq_inconsistent"
	case DequeueHeadCAS:
		return "deq_head_cas"
	case DequeueTailSwing:
		return "deq_tail_swing"
	case DequeueInconsistent:
		return "deq_inconsistent"
	case SnapshotRetry:
		return "snapshot_retry"
	case RingEnqSlot:
		return "ring_enq_slot"
	case RingDeqSlot:
		return "ring_deq_slot"
	case RingCatchup:
		return "ring_catchup"
	case LockSpin:
		return "lock_spin"
	case StealHit:
		return "steal_hit"
	case StealMiss:
		return "steal_miss"
	case WireEnq:
		return "wire_enq"
	case WireDeq:
		return "wire_deq"
	case WireEmpty:
		return "wire_empty"
	case WireRetry:
		return "wire_retry"
	case WireControl:
		return "wire_control"
	case EpochPin:
		return "epoch_pin"
	case EpochAdvance:
		return "epoch_advance"
	case EpochFlush:
		return "epoch_flush"
	case NetFault:
		return "net_fault"
	case WireCorrupt:
		return "wire_corrupt"
	default:
		return fmt.Sprintf("site_%d", uint8(s))
	}
}

// Op classifies a completed queue operation for latency accounting.
type Op uint8

const (
	// Enqueue is an append operation.
	Enqueue Op = iota
	// Dequeue is a remove operation (including empty reports).
	Dequeue

	// NumOps is the number of operation types.
	NumOps = int(Dequeue) + 1
)

// String returns the report label of the operation type.
func (o Op) String() string {
	switch o {
	case Enqueue:
		return "enqueue"
	case Dequeue:
		return "dequeue"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Instrumented is implemented by queues and locks that can report into a
// Probe. SetProbe must be called before the value is shared between
// goroutines (the same publication rule as the inject tracers); containers
// forward the probe to their components (a two-lock queue to its locks, the
// sharded queue to its per-shard MS queues).
type Instrumented interface {
	SetProbe(*Probe)
}

// stripes is the number of cache-padded cells each counter is split
// across. Must be a power of two.
const stripes = 16

// cell is one stripe of a counter, padded to a private cache line so
// concurrent writers on different stripes do not false-share.
type cell struct {
	n atomic.Int64
	_ [pad.CacheLineSize - 8]byte
}

// Probe collects contention counters and per-op latency histograms for one
// measurement run. The zero value is ready to use; a nil *Probe is valid
// and discards everything (the disabled fast path). All methods are safe
// for concurrent use.
type Probe struct {
	counters [NumSites][stripes]cell
	lat      [NumOps]Histogram
}

// NewProbe returns an empty probe.
func NewProbe() *Probe { return &Probe{} }

// Enabled reports whether events are being recorded (p is non-nil).
func (p *Probe) Enabled() bool { return p != nil }

// Add records n events at site s. It is nil-safe and lock-free.
func (p *Probe) Add(s Site, n int64) {
	if p == nil || n == 0 {
		return
	}
	p.counters[s][stripeIdx()].n.Add(n)
}

// Observe records the latency of one completed operation of type op.
func (p *Probe) Observe(op Op, d time.Duration) {
	if p == nil {
		return
	}
	p.lat[op].Observe(d)
}

// Site sums the stripes of one counter. The sum is approximate while
// writers are active and exact at quiescence, like every other counter
// snapshot in this repository.
func (p *Probe) Site(s Site) int64 {
	if p == nil {
		return 0
	}
	var total int64
	for i := range p.counters[s] {
		total += p.counters[s][i].n.Load()
	}
	return total
}

// Snapshot sums every stripe of every counter and histogram. A nil probe
// snapshots to all zeros.
func (p *Probe) Snapshot() Snapshot {
	var snap Snapshot
	if p == nil {
		return snap
	}
	for s := 0; s < NumSites; s++ {
		snap.Sites[s] = p.Site(Site(s))
	}
	for op := 0; op < NumOps; op++ {
		snap.Latency[op] = p.lat[op].Snapshot()
	}
	return snap
}

// stripeIdx hashes the calling goroutine's stack into a stripe index.
// Goroutine stacks are distinct allocations at least 2 KiB apart, so the
// Fibonacci hash of a local's address spreads concurrent goroutines across
// cells; a goroutine keeps its stripe for as long as its stack is not
// moved, which is what makes the stripes behave like per-goroutine
// counters under steady load.
func stripeIdx() int {
	var marker byte
	h := uint64(uintptr(unsafe.Pointer(&marker))) * 0x9E3779B97F4A7C15
	return int(h>>(64-4)) & (stripes - 1)
}

// Snapshot is a quiescent view of a probe's counters and histograms.
type Snapshot struct {
	// Sites holds the per-site event counts, indexed by Site.
	Sites [NumSites]int64
	// Latency holds the per-op latency distributions, indexed by Op.
	Latency [NumOps]LatencySnapshot
}

// Retries sums every site that represents one extra loop iteration of a
// queue operation: CAS failures, consistency re-reads, helping swings,
// snapshot retries and the bounded ring's slot/catch-up retries. Lock spins
// and steal counters are excluded (reported separately by LockSpins and
// Steals).
func (s *Snapshot) Retries() int64 {
	var total int64
	for site := EnqueueLinkCAS; site <= RingCatchup; site++ {
		total += s.Sites[site]
	}
	return total
}

// LockSpins returns the observed-held lock probes (and MC blocked waits).
func (s *Snapshot) LockSpins() int64 { return s.Sites[LockSpin] }

// Steals returns the work-stealing hit and miss counts.
func (s *Snapshot) Steals() (hits, misses int64) {
	return s.Sites[StealHit], s.Sites[StealMiss]
}

// Events sums every recorded event across all sites.
func (s *Snapshot) Events() int64 {
	var total int64
	for _, n := range s.Sites {
		total += n
	}
	return total
}

// Report renders the snapshot as an aligned two-part text report: the
// non-zero per-site counters, then one latency line per op type with count
// and p50/p90/p99. ops, when positive, adds a per-operation rate column
// (events / ops) — pass 2×pairs for a harness run.
func (s *Snapshot) Report(ops int64) string {
	var b strings.Builder

	type row struct{ label, count, rate string }
	rows := make([]row, 0, NumSites)
	for site := 0; site < NumSites; site++ {
		n := s.Sites[site]
		if n == 0 {
			continue
		}
		r := row{label: Site(site).String(), count: fmt.Sprintf("%d", n)}
		if ops > 0 {
			r.rate = fmt.Sprintf("%.4f/op", float64(n)/float64(ops))
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		b.WriteString("no contention events recorded\n")
	} else {
		lw, cw := 0, 0
		for _, r := range rows {
			lw = max(lw, len(r.label))
			cw = max(cw, len(r.count))
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "%-*s  %*s", lw, r.label, cw, r.count)
			if r.rate != "" {
				fmt.Fprintf(&b, "  %s", r.rate)
			}
			b.WriteByte('\n')
		}
	}

	s.WriteLatency(&b, "", "latency")
	return b.String()
}

// WriteLatency writes one line per op type with observations:
// "<indent><op> <label>: n=… p50=… p90=… p99=… max<=…".
func (s *Snapshot) WriteLatency(w io.Writer, indent, label string) {
	for op := 0; op < NumOps; op++ {
		l := s.Latency[op]
		if l.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%s%s %s: n=%d p50=%v p90=%v p99=%v max<=%v\n",
			indent, Op(op), label, l.Count, l.Quantile(0.50), l.Quantile(0.90), l.Quantile(0.99), l.Quantile(1))
	}
}
