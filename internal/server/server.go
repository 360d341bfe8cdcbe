// Package server exposes any catalog queue over the wire protocol of
// internal/wire: the first place the algorithms' progress and boundedness
// guarantees are load-bearing for an external interface instead of a
// harness.
//
// # Connection model
//
// Each accepted connection is served by one goroutine that reads frames
// through a buffered reader and applies them to the queue in arrival order
// — per-connection FIFO, the property the queue itself is about. Responses
// go into a buffered writer that is flushed only before a read that could
// block, that is when the next request frame is not already buffered
// whole, so a pipelining client's burst is answered in few syscalls and a
// lone request is answered at once. A client that floods requests without
// reading responses eventually blocks the flush, and with it its own
// connection, not the server.
//
// # Backpressure
//
// When the backing queue implements queue.Bounded, a full queue turns an
// enqueue into a RETRY frame carrying a backoff hint — the connection
// between the paper-world capacity bound and the network: an unbounded
// stream of producers cannot grow server memory, they get pushed back.
// The hint doubles with a connection's consecutive refusals so persistent
// producers are told to slow down harder. Unbounded queues (the GC-based
// MS queue and friends) always accept, as their contract says.
//
// # Graceful drain
//
// Drain refuses new work (RETRY with reason "draining") but keeps serving
// dequeues until every *acknowledged* enqueue has been delivered to some
// consumer, then closes. The acked-minus-delivered backlog counter is
// exact because the drain flag is set under the same lock the enqueue
// paths hold, so no enqueue straddles the cut-over: after Drain returns,
// either the element was refused, or it was acked and has been delivered.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"msqueue/internal/metrics"
	"msqueue/internal/queue"
	"msqueue/internal/telemetry"
	"msqueue/internal/wire"
)

const (
	// DefaultRetryHint is the base backoff hint sent in RETRY frames.
	DefaultRetryHint = time.Millisecond
	// maxHintShift caps the per-connection hint escalation at base<<6.
	maxHintShift = 6
)

// Config parameterizes a Server. Queue is required; everything else has a
// usable zero value.
type Config struct {
	// Queue is the backing queue. If it also implements queue.Bounded its
	// TryEnqueue drives the RETRY backpressure path; if it implements
	// queue.Batcher the batch frames use the amortized operations.
	Queue queue.Queue[int]
	// MaxConns limits concurrently served connections; further accepts
	// are answered with an ERR frame and closed. 0 means no limit.
	MaxConns int
	// RetryHint is the base backoff hint for RETRY frames (default
	// DefaultRetryHint). A connection's consecutive refusals double it,
	// up to RetryHint<<6.
	RetryHint time.Duration
	// IdleTimeout, when positive, bounds how long a connection may go
	// without delivering a complete frame before the server closes it, so
	// a client that connects and goes silent cannot pin a MaxConns slot
	// forever. The deadline is refreshed on every frame. 0 disables it.
	IdleTimeout time.Duration
	// WriteTimeout, when positive, bounds how long one write or flush to
	// a connection may block — the mirror of IdleTimeout on the response
	// side. Without it a peer that stops *reading* (a blackholed or
	// stalled consumer with a full TCP window) pins its connection's
	// goroutine, and with it any values in flight to that consumer,
	// forever — which would also wedge Drain, since those values count
	// against the backlog. On expiry the write fails, the undelivered
	// values are requeued, and the connection dies. 0 disables it.
	WriteTimeout time.Duration
	// Probe, when non-nil, records an event on every frame path (the
	// metrics.Wire* sites) and the server-observed enqueue/dequeue
	// latencies.
	Probe *metrics.Probe
	// Events, when non-nil, receives connection- and lifecycle-level
	// transitions (open/close/refusal, RETRY, detected corruption,
	// requeues, drain begin/end) for post-incident reconstruction. Like
	// Probe it is nil-safe: recording into a nil recorder is one branch.
	// Per-frame traffic stays in the counters — the recorder is for the
	// rare transitions, bounded at the recorder's ring size.
	Events *telemetry.Recorder
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// Server serves one queue to any number of connections. Create with New.
type Server struct {
	cfg     Config
	bounded queue.Bounded[int]
	batcher queue.Batcher[int]

	// opMu serialises enqueue application against the drain cut-over:
	// readers (enqueue paths) hold it shared, Drain takes it exclusively
	// for the instant it sets draining. This is what makes the backlog
	// monotonically non-increasing after Drain returns control.
	opMu     sync.RWMutex
	draining atomic.Bool

	// backlog = acknowledged elements - delivered elements. Zero while
	// draining means every acked enqueue has been flushed to a consumer.
	backlog atomic.Int64

	enqueued atomic.Uint64
	dequeued atomic.Uint64
	empties  atomic.Uint64
	retries  atomic.Uint64
	lost     atomic.Uint64

	// connSeq hands each admitted connection a serial number: the stable
	// identity flight-recorder events correlate on, since a net.Conn's
	// address string can be reused the moment a port is.
	connSeq atomic.Uint64

	mu        sync.Mutex
	conns     map[net.Conn]uint64
	listeners map[net.Listener]struct{}
	closed    bool

	wg sync.WaitGroup
}

// New returns a Server for cfg. It panics if cfg.Queue is nil — a server
// without a queue is a programming error, not a runtime condition.
func New(cfg Config) *Server {
	if cfg.Queue == nil {
		panic("server: Config.Queue is required")
	}
	if cfg.RetryHint <= 0 {
		cfg.RetryHint = DefaultRetryHint
	}
	s := &Server{
		cfg:       cfg,
		conns:     make(map[net.Conn]uint64),
		listeners: make(map[net.Listener]struct{}),
	}
	s.bounded, _ = cfg.Queue.(queue.Bounded[int])
	s.batcher, _ = cfg.Queue.(queue.Batcher[int])
	return s
}

// ErrServerClosed is returned by Serve after Close or a completed Drain.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections on l until the listener fails or the server
// closes. It blocks; run it in a goroutine if the caller has other work.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
		l.Close()
	}()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || s.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		if _, ok := s.admit(conn); !ok {
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// admit registers conn against the connection limit, refusing it with an
// ERR frame when the server is full or closed. On success it returns the
// connection's serial, the identity its flight-recorder events carry.
func (s *Server) admit(conn net.Conn) (uint64, bool) {
	s.mu.Lock()
	if s.closed || (s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns) {
		closed := s.closed
		s.mu.Unlock()
		msg := "connection limit reached"
		if closed {
			msg = "server closed"
		}
		wire.Write(conn, wire.ErrFrame(0, msg)) // best effort; the refusal is the close
		conn.Close()
		s.cfg.Events.Record(telemetry.EvConnRefused, 0, 0, remoteAddr(conn)+": "+msg)
		s.logf("refused connection from %v: %s", conn.RemoteAddr(), msg)
		return 0, false
	}
	id := s.connSeq.Add(1)
	s.conns[conn] = id
	s.mu.Unlock()
	s.cfg.Events.Record(telemetry.EvConnOpen, id, 0, remoteAddr(conn))
	return id, true
}

// remoteAddr is conn.RemoteAddr().String() hardened against the nil Addr
// some synthetic net.Conns (net.Pipe halves in tests) return.
func remoteAddr(conn net.Conn) string {
	if a := conn.RemoteAddr(); a != nil {
		return a.String()
	}
	return "?"
}

// ServeConn serves one already-established connection until it closes,
// then returns. It is exported so tests can drive the server over
// net.Pipe without a listener; Serve calls it for accepted connections.
// Connections handed directly to ServeConn also count against MaxConns.
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	id, registered := s.conns[conn]
	s.mu.Unlock()
	if !registered {
		var ok bool
		if id, ok = s.admit(conn); !ok {
			// Direct connections go through the same admission as accepted
			// ones: the doc comment's MaxConns promise, and an ERR refusal
			// instead of a silent close.
			return
		}
	}
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.cfg.Events.Record(telemetry.EvConnClose, id, 0, "")
	}()

	c := &connState{id: id}
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	// armWrite bounds the next write or flush: a peer that has stopped
	// reading (full TCP window, blackholed route) turns into a write error
	// within WriteTimeout instead of pinning this goroutine — and the
	// unflushed values, and therefore Drain — forever.
	armWrite := func() {
		if s.cfg.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
	}
	// unflushed holds the values of the responses written since the last
	// flush. They settle the backlog only after a flush succeeds, and a
	// failure puts them back in the queue: a dequeue the consumer never
	// received must not count as delivered, or a graceful drain would
	// declare victory while dropping acknowledged elements on the floor.
	var unflushed []int64
	flush := func() error {
		armWrite()
		if err := bw.Flush(); err != nil {
			return err
		}
		if n := len(unflushed); n > 0 {
			s.backlog.Add(-int64(n))
			s.dequeued.Add(uint64(n))
			s.cfg.Probe.Add(metrics.WireDeq, int64(n))
			unflushed = unflushed[:0]
		}
		return nil
	}
	// Registered after the close so it runs first: a protocol error's ERR
	// reaches the peer. After a failed write or flush, bw's error is sticky
	// and fails this flush too, so the values of every unflushed response,
	// the failing one included, are requeued.
	defer func() {
		if err := flush(); err != nil {
			s.logf("flush to %v: %v", conn.RemoteAddr(), err)
			s.requeue(id, unflushed)
		}
	}()

	var buf []byte
	for {
		// Flush only before a read that could block, so a pipelined burst
		// already in br is answered with one write.
		if !wire.FrameBuffered(br) && flush() != nil {
			return
		}
		if s.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		f, newBuf, err := wire.Read(br, buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.cfg.Events.Record(telemetry.EvIdleReap, id, int64(s.cfg.IdleTimeout), "")
				s.logf("closing idle connection %v after %v", conn.RemoteAddr(), s.cfg.IdleTimeout)
			}
			if errors.Is(err, wire.ErrChecksum) || errors.Is(err, wire.ErrBadMagic) {
				// Detected corruption or version desync: the bytes on this
				// stream are not what the peer sent, so nothing after them
				// can be parsed as a frame. Tear the connection down —
				// never guess at a frame boundary — and count the save.
				s.cfg.Probe.Add(metrics.WireCorrupt, 1)
				s.cfg.Events.Record(telemetry.EvCorrupt, id, 0, err.Error())
				s.logf("closing connection %v on wire integrity failure: %v", conn.RemoteAddr(), err)
			}
			return // clean close, torn frame, corruption, idle reap or our own teardown: stop reading either way
		}
		buf = newBuf
		resp, delivered, fatal := s.handle(c, f)
		// The values join unflushed before the write: a failed write may
		// have buffered or half-sent the frame.
		unflushed = append(unflushed, delivered...)
		armWrite()
		if wire.Write(bw, resp) != nil || fatal {
			return
		}
	}
}

// connState is per-connection bookkeeping owned by its serving goroutine.
type connState struct {
	// id is the connection's admission serial (see Server.connSeq).
	id uint64
	// fulls counts consecutive refused enqueues, escalating the hint.
	fulls int
}

// handle applies one request frame and returns the response, the values
// it delivers, and whether the connection must close after sending it
// (protocol errors).
func (s *Server) handle(c *connState, f wire.Frame) (wire.Frame, []int64, bool) {
	switch f.Type {
	case wire.Enq:
		v, err := wire.DecodeValue(f.Payload)
		if err != nil {
			return wire.ErrFrame(f.ID, err.Error()), nil, true
		}
		if n := s.enqueue([]int64{v}); n == 0 {
			return s.refuse(c, f.ID), nil, false
		}
		c.fulls = 0
		return wire.AckFrame(f.ID), nil, false

	case wire.EnqBatch:
		vs, err := wire.DecodeValues(f.Payload)
		if err != nil {
			return wire.ErrFrame(f.ID, err.Error()), nil, true
		}
		n := s.enqueue(vs)
		if n == 0 && len(vs) > 0 {
			return s.refuse(c, f.ID), nil, false
		}
		// Reset the backoff hint only on full acceptance: a partial batch
		// (n < len(vs)) proves the queue is full right now, and collapsing
		// the escalation would invite the client straight back into the
		// refusal it is about to receive.
		if n == len(vs) && n > 0 {
			c.fulls = 0
		}
		return wire.AckCountFrame(f.ID, n), nil, false

	case wire.Deq:
		if v, ok := s.dequeueOne(); ok {
			return wire.ValueFrame(f.ID, v), []int64{v}, false
		}
		return wire.EmptyFrame(f.ID), nil, false

	case wire.DeqBatch:
		max, err := wire.DecodeCount(f.Payload)
		if err != nil {
			return wire.ErrFrame(f.ID, err.Error()), nil, true
		}
		vs := s.dequeueBatch(max)
		if len(vs) == 0 {
			return wire.EmptyFrame(f.ID), nil, false
		}
		return wire.ValuesFrame(f.ID, vs), vs, false

	case wire.Stats:
		s.cfg.Probe.Add(metrics.WireControl, 1)
		return wire.StatsReplyFrame(f.ID, s.Counters()), nil, false

	case wire.Ping:
		s.cfg.Probe.Add(metrics.WireControl, 1)
		return wire.PongFrame(f.ID), nil, false

	default:
		return wire.ErrFrame(f.ID, fmt.Sprintf("unexpected frame type %v", f.Type)), nil, true
	}
}

// enqueue applies a prefix of vs to the queue under the drain gate and
// returns how many elements were accepted (and therefore acknowledged).
func (s *Server) enqueue(vs []int64) int {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if s.draining.Load() {
		return 0
	}
	start := s.now()
	n := 0
	if s.batcher != nil && len(vs) > 1 {
		// Amortized path: one reservation sweep instead of len(vs)
		// round trips over the queue's synchronisation words.
		ints := make([]int, len(vs))
		for i, v := range vs {
			ints[i] = int(v)
		}
		n = s.batcher.EnqueueBatch(ints)
	} else {
		for _, v := range vs {
			if s.bounded != nil {
				if !s.bounded.TryEnqueue(int(v)) {
					break
				}
			} else {
				s.cfg.Queue.Enqueue(int(v))
			}
			n++
		}
	}
	if n > 0 {
		s.backlog.Add(int64(n))
		s.enqueued.Add(uint64(n))
		s.cfg.Probe.Add(metrics.WireEnq, int64(n))
		s.observe(metrics.Enqueue, start)
	}
	return n
}

// refuse builds the RETRY response for a refused enqueue, escalating the
// hint with the connection's consecutive refusals.
func (s *Server) refuse(c *connState, id uint64) wire.Frame {
	reason := wire.RetryFull
	if s.draining.Load() {
		reason = wire.RetryDraining
	}
	shift := c.fulls
	if shift > maxHintShift {
		shift = maxHintShift
	}
	c.fulls++
	s.retries.Add(1)
	s.cfg.Probe.Add(metrics.WireRetry, 1)
	hint := s.cfg.RetryHint << shift
	s.cfg.Events.Record(telemetry.EvRetry, c.id, int64(hint), reason.String())
	return wire.RetryFrame(id, reason, hint)
}

func (s *Server) dequeueOne() (int64, bool) {
	start := s.now()
	v, ok := s.cfg.Queue.Dequeue()
	if !ok {
		s.empties.Add(1)
		s.cfg.Probe.Add(metrics.WireEmpty, 1)
		return 0, false
	}
	s.observe(metrics.Dequeue, start)
	return int64(v), true
}

// dequeueChunk bounds the scratch one DEQ_BATCH request allocates before
// it knows how many values exist, so a 9-byte request for wire.MaxBatch
// against an empty queue cannot cost the server 512 KiB.
const dequeueChunk = 256

// dequeueBatch removes up to max values, a chunk at a time, stopping at the
// first short chunk; the result grows only as values arrive.
func (s *Server) dequeueBatch(max int) []int64 {
	if max <= 0 {
		return nil
	}
	if max > wire.MaxBatch {
		max = wire.MaxBatch
	}
	start := s.now()
	ints := make([]int, min(max, dequeueChunk))
	var vs []int64
	for len(vs) < max {
		chunk := ints[:min(max-len(vs), len(ints))]
		n := s.dequeueInto(chunk)
		vs = slices.Grow(vs, n)
		for _, v := range chunk[:n] {
			vs = append(vs, int64(v))
		}
		if n < len(chunk) {
			break
		}
	}
	if len(vs) == 0 {
		s.empties.Add(1)
		s.cfg.Probe.Add(metrics.WireEmpty, 1)
		return nil
	}
	s.observe(metrics.Dequeue, start)
	return vs
}

// dequeueInto fills a prefix of dst from the queue and returns its length.
func (s *Server) dequeueInto(dst []int) int {
	if s.batcher != nil {
		return s.batcher.DequeueBatch(dst)
	}
	n := 0
	for n < len(dst) {
		v, ok := s.cfg.Queue.Dequeue()
		if !ok {
			break
		}
		dst[n] = v
		n++
	}
	return n
}

// now is time.Now gated on the probe, so the unprobed hot path pays no
// clock reads.
func (s *Server) now() time.Time {
	if !s.cfg.Probe.Enabled() {
		return time.Time{}
	}
	return time.Now()
}

func (s *Server) observe(op metrics.Op, start time.Time) {
	if !start.IsZero() {
		s.cfg.Probe.Observe(op, time.Since(start))
	}
}

// requeue returns undelivered values to the queue so a connected consumer
// (or the drain) can still flush them. Redelivered values re-enter at the
// tail — the usual at-least-once reordering, documented in DESIGN §12. If
// a bounded queue is full the residue is dropped and settled so a drain
// terminates instead of waiting for elements nobody holds; the Lost
// counter records the event.
func (s *Server) requeue(id uint64, vs []int64) {
	if len(vs) == 0 {
		return
	}
	n := 0
	for _, v := range vs {
		if s.bounded != nil {
			if !s.bounded.TryEnqueue(int(v)) {
				break
			}
		} else {
			s.cfg.Queue.Enqueue(int(v))
		}
		n++
	}
	s.cfg.Events.Record(telemetry.EvRequeue, id, int64(n), "")
	if lost := len(vs) - n; lost > 0 {
		s.backlog.Add(-int64(lost))
		s.lost.Add(uint64(lost))
		s.cfg.Events.Record(telemetry.EvLost, id, int64(lost), "bounded queue full on requeue")
		s.logf("requeue: dropped %d undeliverable value(s), bounded queue full", lost)
	}
}

// Counters snapshots the wire-path tallies. Quiescent reads are exact;
// concurrent ones are approximate, like every counter in this module.
func (s *Server) Counters() wire.Counters {
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	return wire.Counters{
		Enqueued: s.enqueued.Load(),
		Dequeued: s.dequeued.Load(),
		Empties:  s.empties.Load(),
		Retries:  s.retries.Load(),
		Conns:    uint64(conns),
		Draining: s.draining.Load(),
	}
}

// Backlog returns acknowledged-but-undelivered elements.
func (s *Server) Backlog() int64 { return s.backlog.Load() }

// Lost returns acknowledged elements dropped because they could not be
// redelivered after a consumer's connection died with responses in flight
// and the bounded queue had no room to take them back. Zero in every
// orderly run.
func (s *Server) Lost() uint64 { return s.lost.Load() }

// Drain performs the graceful shutdown: stop accepting connections,
// refuse new enqueues with RETRY(draining), keep serving dequeues until
// the acknowledged backlog reaches zero, then close every connection. It
// returns nil once the backlog is flushed, or the context error with the
// residual backlog if consumers did not keep up — in which case the
// connections are closed anyway (a bounded drain, not a hung process).
func (s *Server) Drain(ctx context.Context) error {
	// The exclusive lock is the cut-over: once released, every enqueue
	// path observes draining and refuses, so backlog only decreases.
	s.opMu.Lock()
	s.draining.Store(true)
	s.opMu.Unlock()
	s.cfg.Events.Record(telemetry.EvDrainBegin, 0, s.backlog.Load(), "")

	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()

	var err error
	for s.backlog.Load() > 0 {
		select {
		case <-ctx.Done():
			err = fmt.Errorf("server: drain interrupted with backlog %d: %w", s.backlog.Load(), ctx.Err())
		case <-time.After(time.Millisecond):
			continue
		}
		break
	}

	s.closeConns()
	s.wg.Wait()
	s.cfg.Events.Record(telemetry.EvDrainEnd, 0, s.backlog.Load(), "")
	return err
}

// Close force-closes listeners and connections without draining.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()
	s.closeConns()
	s.wg.Wait()
	return nil
}

func (s *Server) closeConns() {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
