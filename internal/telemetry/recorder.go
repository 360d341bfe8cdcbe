// Package telemetry turns the monotonic counters of internal/metrics and
// the server's tallies into *live* observability for a long-running
// qserve: a Prometheus text-exposition /metrics endpoint plus /healthz
// and pprof on an admin listener (exporter.go, admin.go), a parser for
// that exposition (parse.go) so a scraper can diff two of them, and a
// bounded lock-free flight recorder holding the last N wire/server events
// for post-incident reconstruction (this file).
//
// Everything here is read-side only with respect to the hot path: the
// exporter consumes metrics.Probe snapshots (read-only atomic sweeps),
// the recorder's write path is one allocation, one fetch-and-add and one
// atomic pointer store, and no queue operation ever waits on a telemetry
// lock.
package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// EventKind classifies one flight-recorder event. The kinds mirror the
// connection- and lifecycle-level transitions of internal/server: rare
// enough to record individually, load-bearing enough that "what happened
// in the last minute before the stall" is usually answerable from them.
type EventKind uint8

const (
	// EvConnOpen: a connection passed admission. Note holds the remote
	// address.
	EvConnOpen EventKind = iota
	// EvConnClose: a served connection ended (clean close, torn frame,
	// idle reap or teardown).
	EvConnClose
	// EvConnRefused: admission refused the connection (MaxConns or server
	// closed). Note holds the refusal message.
	EvConnRefused
	// EvRetry: an enqueue was refused with a RETRY frame. Arg is the
	// backoff hint in nanoseconds, Note the reason ("full", "draining").
	EvRetry
	// EvCorrupt: a frame failed its checksum or magic-byte check and the
	// connection was torn down. Note holds the decoder's error.
	EvCorrupt
	// EvRequeue: undelivered in-flight values were returned to the queue
	// after a write failure. Arg is the number of values requeued.
	EvRequeue
	// EvLost: requeued values were dropped because the bounded queue was
	// full. Arg is the number of acknowledged values lost.
	EvLost
	// EvIdleReap: the idle timeout closed a silent connection. Arg is the
	// timeout in nanoseconds.
	EvIdleReap
	// EvDrainBegin: the graceful drain cut-over — new enqueues refused
	// from this instant.
	EvDrainBegin
	// EvDrainEnd: the drain finished. Arg is the residual backlog (zero on
	// a clean drain).
	EvDrainEnd

	// NumEventKinds is the number of event kinds.
	NumEventKinds = int(EvDrainEnd) + 1
)

// String returns the dump label of the kind.
func (k EventKind) String() string {
	switch k {
	case EvConnOpen:
		return "conn-open"
	case EvConnClose:
		return "conn-close"
	case EvConnRefused:
		return "conn-refused"
	case EvRetry:
		return "retry"
	case EvCorrupt:
		return "corrupt"
	case EvRequeue:
		return "requeue"
	case EvLost:
		return "LOST"
	case EvIdleReap:
		return "idle-reap"
	case EvDrainBegin:
		return "drain-begin"
	case EvDrainEnd:
		return "drain-end"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one recorded occurrence. Events are immutable once published.
type Event struct {
	// Seq is the event's global sequence number (0-based, dense): the
	// recorder's analogue of a ring position. Dumps order by it and infer
	// drops from gaps against the total.
	Seq uint64
	// When is the wall-clock time of the Record call.
	When time.Time
	// Kind classifies the event.
	Kind EventKind
	// Conn is the serial number of the connection involved, or 0 for
	// server-wide events (drain transitions).
	Conn uint64
	// Arg is a kind-specific number (count, nanoseconds, backlog).
	Arg int64
	// Note is a kind-specific short string (address, reason, error).
	Note string
}

// Recorder is a bounded lock-free ring of the last N events — a flight
// recorder, not a log: writers never block and never fail, old events are
// overwritten, and the memory bound is fixed at construction (N slot
// pointers plus at most N live Events).
//
// The design reuses the slot discipline of internal/ring in miniature: a
// fetch-and-add on the tail hands each writer a unique position, position
// mod ring size picks the slot, and the position (the event's Seq, the
// ring's cycle×size+offset) rides inside the published record so a reader
// can always tell which lap a slot's content belongs to. Where the ring's
// slots pack cycle+index into one CAS word — its entries outlive the
// publishing operation — the recorder publishes a pointer to an immutable
// Event, so a single atomic store replaces the claim CAS and a lapped
// writer simply overwrites: the freshest event wins the slot, which for a
// flight recorder is exactly the drop semantics wanted (drop-oldest,
// never drop-newest, never block).
//
// A nil *Recorder is valid and discards everything, the same convention
// as metrics.Probe.
type Recorder struct {
	mask  uint64
	tail  atomic.Uint64
	slots []atomic.Pointer[Event]
}

// DefaultRecorderSize is the event capacity used when the caller does not
// choose one: enough to span an incident's tail at connection-event rates,
// small enough to be always-on (≈ a few tens of KiB live).
const DefaultRecorderSize = 256

// NewRecorder returns a recorder holding the last n events, n rounded up
// to a power of two (minimum 8, so a burst of related events survives
// long enough to be dumped together). n <= 0 selects DefaultRecorderSize.
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultRecorderSize
	}
	if n < 8 {
		n = 8
	}
	size := 1 << uint(bits.Len(uint(n-1)))
	return &Recorder{
		mask:  uint64(size - 1),
		slots: make([]atomic.Pointer[Event], size),
	}
}

// Cap returns the number of events retained (the rounded ring size), or 0
// for a nil recorder.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Record publishes one event. It is nil-safe, lock-free and never fails;
// cost is one small allocation, one fetch-and-add and one atomic store,
// cheap enough for every connection-level path (it is not wired into
// per-frame paths — those are counters' business).
func (r *Recorder) Record(kind EventKind, conn uint64, arg int64, note string) {
	if r == nil {
		return
	}
	ev := &Event{When: time.Now(), Kind: kind, Conn: conn, Arg: arg, Note: note}
	ev.Seq = r.tail.Add(1) - 1
	r.slots[ev.Seq&r.mask].Store(ev)
}

// Recorded returns the total number of events ever recorded (including
// overwritten ones). Zero for a nil recorder.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.tail.Load()
}

// Events returns the retained events in Seq order, oldest first. The
// slice is a private copy; concurrent Record calls may overwrite slots
// mid-collection, in which case the freshly overwritten event appears and
// the lapped one does not — each slot read is individually consistent
// because publication is a single pointer store of an immutable record.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	evs := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if ev := r.slots[i].Load(); ev != nil {
			evs = append(evs, *ev)
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	return evs
}

// Dropped returns how many events have been overwritten and are no longer
// retained.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	total := r.Recorded()
	if retained := uint64(len(r.Events())); total > retained {
		return total - retained
	}
	return 0
}

// Dump renders the retained events as an aligned text block, oldest
// first — the SIGQUIT / watchdog / /debug/events report.
func (r *Recorder) Dump(w io.Writer) {
	evs := r.Events()
	total := r.Recorded()
	fmt.Fprintf(w, "flight recorder: %d event(s) recorded, %d retained", total, len(evs))
	if total > uint64(len(evs)) {
		fmt.Fprintf(w, " (%d overwritten)", total-uint64(len(evs)))
	}
	fmt.Fprintln(w)
	for _, ev := range evs {
		fmt.Fprintf(w, "  %s\n", formatEvent(ev))
	}
}

// formatEvent renders one dump line: timestamp, sequence, connection,
// kind and the kind-specific detail.
func formatEvent(ev Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  #%-5d", ev.When.Format("15:04:05.000000"), ev.Seq)
	if ev.Conn != 0 {
		fmt.Fprintf(&b, "  conn=%-4d", ev.Conn)
	} else {
		b.WriteString("  serverwide")
	}
	fmt.Fprintf(&b, "  %-12s", ev.Kind)
	switch ev.Kind {
	case EvRetry:
		fmt.Fprintf(&b, " %s (hint %v)", ev.Note, time.Duration(ev.Arg))
	case EvRequeue, EvLost:
		fmt.Fprintf(&b, " %d value(s)", ev.Arg)
		if ev.Note != "" {
			fmt.Fprintf(&b, " %s", ev.Note)
		}
	case EvIdleReap:
		fmt.Fprintf(&b, " after %v", time.Duration(ev.Arg))
	case EvDrainEnd:
		fmt.Fprintf(&b, " residual backlog %d", ev.Arg)
	default:
		if ev.Note != "" {
			fmt.Fprintf(&b, " %s", ev.Note)
		}
	}
	return b.String()
}
