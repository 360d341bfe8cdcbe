package server

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"msqueue/internal/core"
	"msqueue/internal/metrics"
	"msqueue/internal/queue"
	"msqueue/internal/ring"
	"msqueue/internal/telemetry"
	"msqueue/internal/wire"
)

// rawConn speaks the wire protocol directly over one connection, strictly
// one request/response at a time — the discipline net.Pipe's synchronous
// rendezvous requires (pipelined traffic is exercised over TCP by the
// client package's tests).
type rawConn struct {
	t    *testing.T
	conn net.Conn
	id   uint64
	buf  []byte
}

func (c *rawConn) roundTrip(f wire.Frame) (wire.Frame, error) {
	if err := wire.Write(c.conn, f); err != nil {
		return wire.Frame{}, err
	}
	resp, buf, err := wire.Read(c.conn, c.buf)
	c.buf = buf
	if err != nil {
		return wire.Frame{}, err
	}
	// ERR frames sent before a request was read (connection refusal)
	// carry id 0; anything else must echo the request id.
	if resp.ID != f.ID && resp.Type != wire.Err {
		c.t.Fatalf("response id %d for request id %d", resp.ID, f.ID)
	}
	// The payload aliases c.buf and the next roundTrip overwrites it;
	// copy so callers may hold responses.
	resp.Payload = append([]byte(nil), resp.Payload...)
	return resp, nil
}

func (c *rawConn) nextID() uint64 { c.id++; return c.id }

func (c *rawConn) enq(v int64) (wire.Frame, error) {
	return c.roundTrip(wire.EnqFrame(c.nextID(), v))
}

func (c *rawConn) deq() (wire.Frame, error) {
	return c.roundTrip(wire.DeqFrame(c.nextID()))
}

// pipeServer wires a raw client to s over net.Pipe.
func pipeServer(t *testing.T, s *Server) *rawConn {
	t.Helper()
	client, srv := net.Pipe()
	go s.ServeConn(srv)
	t.Cleanup(func() { client.Close() })
	return &rawConn{t: t, conn: client}
}

func TestServeConnBasics(t *testing.T) {
	probe := metrics.NewProbe()
	s := New(Config{Queue: core.NewMS[int](), Probe: probe})
	c := pipeServer(t, s)

	for i := int64(0); i < 5; i++ {
		resp, err := c.enq(i * 10)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != wire.Ack {
			t.Fatalf("enq response = %v, want ACK", resp.Type)
		}
	}
	for i := int64(0); i < 5; i++ {
		resp, err := c.deq()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != wire.Value {
			t.Fatalf("deq response = %v, want VALUE", resp.Type)
		}
		v, err := wire.DecodeValue(resp.Payload)
		if err != nil || v != i*10 {
			t.Fatalf("deq value = %d, %v; want %d (FIFO over the wire)", v, err, i*10)
		}
	}
	if resp, _ := c.deq(); resp.Type != wire.Empty {
		t.Fatalf("deq on empty = %v, want EMPTY", resp.Type)
	}
	if resp, _ := c.roundTrip(wire.PingFrame(c.nextID())); resp.Type != wire.Pong {
		t.Fatalf("ping = %v, want PONG", resp.Type)
	}

	resp, err := c.roundTrip(wire.StatsFrame(c.nextID()))
	if err != nil || resp.Type != wire.StatsReply {
		t.Fatalf("stats = %v, %v; want STATS_REPLY", resp.Type, err)
	}
	counters, err := wire.DecodeCounters(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if counters.Enqueued != 5 || counters.Dequeued != 5 || counters.Empties != 1 || counters.Backlog() != 0 {
		t.Fatalf("counters = %+v, want enq=5 deq=5 empties=1", counters)
	}

	// Every frame path must have hit its probe site.
	for _, site := range []metrics.Site{metrics.WireEnq, metrics.WireDeq, metrics.WireEmpty, metrics.WireControl} {
		if probe.Site(site) == 0 {
			t.Errorf("probe site %v = 0, want > 0", site)
		}
	}
}

// TestBackpressureRetry: a full bounded queue yields RETRY frames with an
// escalating hint instead of growth, and acceptance resumes after a
// dequeue frees a slot.
func TestBackpressureRetry(t *testing.T) {
	const cap = 4
	probe := metrics.NewProbe()
	s := New(Config{Queue: ring.New[int](cap), Probe: probe, RetryHint: time.Millisecond})
	c := pipeServer(t, s)

	for i := int64(0); i < cap; i++ {
		if resp, _ := c.enq(i); resp.Type != wire.Ack {
			t.Fatalf("enq %d = %v, want ACK", i, resp.Type)
		}
	}
	var lastHint time.Duration
	for i := 0; i < 3; i++ {
		resp, err := c.enq(99)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != wire.Retry {
			t.Fatalf("enq on full = %v, want RETRY", resp.Type)
		}
		reason, hint, err := wire.DecodeRetry(resp.Payload)
		if err != nil || reason != wire.RetryFull {
			t.Fatalf("retry reason = %v, %v; want full", reason, err)
		}
		if hint <= lastHint {
			t.Fatalf("refusal %d hint = %v, want > previous %v (escalation)", i, hint, lastHint)
		}
		lastHint = hint
	}
	if got := probe.Site(metrics.WireRetry); got != 3 {
		t.Fatalf("WireRetry = %d, want 3", got)
	}

	if resp, _ := c.deq(); resp.Type != wire.Value {
		t.Fatal("dequeue after refusals failed")
	}
	resp, _ := c.enq(100)
	if resp.Type != wire.Ack {
		t.Fatalf("enq after freeing a slot = %v, want ACK (hint reset path)", resp.Type)
	}
}

// TestBatchFrames exercises ENQ_BATCH/DEQ_BATCH on a Batcher-capable ring
// (amortized path) and on the plain MS queue (fallback loop), including
// the partial-accept prefix on a full bounded queue.
func TestBatchFrames(t *testing.T) {
	t.Run("ring-batcher", func(t *testing.T) { testBatchFrames(t, New(Config{Queue: ring.New[int](8)}), 8) })
	t.Run("ms-fallback", func(t *testing.T) { testBatchFrames(t, New(Config{Queue: core.NewMS[int]()}), 0) })
}

func testBatchFrames(t *testing.T, s *Server, capacity int) {
	c := pipeServer(t, s)

	vs := []int64{1, 2, 3, 4, 5}
	resp, err := c.roundTrip(wire.EnqBatchFrame(c.nextID(), vs))
	if err != nil || resp.Type != wire.Ack {
		t.Fatalf("enq batch = %v, %v; want ACK", resp.Type, err)
	}
	if n, _ := wire.DecodeCount(resp.Payload); n != len(vs) {
		t.Fatalf("batch accepted %d, want %d", n, len(vs))
	}

	if capacity > 0 {
		// 5 of 8 slots used; a batch of 6 must be accepted as a prefix of 3.
		resp, err := c.roundTrip(wire.EnqBatchFrame(c.nextID(), []int64{6, 7, 8, 9, 10, 11}))
		if err != nil || resp.Type != wire.Ack {
			t.Fatalf("partial batch = %v, %v; want ACK", resp.Type, err)
		}
		if n, _ := wire.DecodeCount(resp.Payload); n != capacity-len(vs) {
			t.Fatalf("partial batch accepted %d, want %d", n, capacity-len(vs))
		}
		// And with zero room, RETRY rather than a zero-count ack.
		resp, err = c.roundTrip(wire.EnqBatchFrame(c.nextID(), []int64{12}))
		if err != nil || resp.Type != wire.Retry {
			t.Fatalf("batch on full = %v, %v; want RETRY", resp.Type, err)
		}
	}

	got := make([]int64, 0, capacity+len(vs))
	for {
		resp, err := c.roundTrip(wire.DeqBatchFrame(c.nextID(), 3))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type == wire.Empty {
			break
		}
		if resp.Type != wire.Values {
			t.Fatalf("deq batch = %v, want VALUES", resp.Type)
		}
		batch, err := wire.DecodeValues(resp.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 || len(batch) > 3 {
			t.Fatalf("deq batch returned %d values, want 1..3", len(batch))
		}
		got = append(got, batch...)
	}
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("batch dequeue order: got[%d] = %d, want %d", i, v, i+1)
		}
	}
}

// TestDeqBatchMemoryBounded: a DEQ_BATCH for wire.MaxBatch values costs
// the server memory in proportion to the values that exist, not to the
// count the 9-byte request names; a multi-chunk batch still arrives whole
// and in order.
func TestDeqBatchMemoryBounded(t *testing.T) {
	for _, q := range []queue.Queue[int]{ring.New[int](1024), core.NewMS[int]()} {
		s := New(Config{Queue: q})
		c := &connState{}
		req := wire.DeqBatchFrame(1, wire.MaxBatch)
		const runs = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if resp := handleFrame(t, s, c, req); resp.Type != wire.Empty {
				t.Fatalf("%T: deq batch on empty = %v, want EMPTY", q, resp.Type)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 8<<10 {
			t.Fatalf("%T: DEQ_BATCH(%d) on an empty queue allocated %d B, want < 8 KiB", q, wire.MaxBatch, per)
		}

		const n = 3*dequeueChunk + 5
		for v := 0; v < n; v++ {
			q.Enqueue(v)
		}
		resp := handleFrame(t, s, c, req)
		vs, err := wire.DecodeValues(resp.Payload)
		if err != nil || len(vs) != n {
			t.Fatalf("%T: deq batch returned %d values, %v; want %d", q, len(vs), err, n)
		}
		for i, v := range vs {
			if v != int64(i) {
				t.Fatalf("%T: vs[%d] = %d, want %d", q, i, v, i)
			}
		}
	}
}

// handleFrame applies req through s.handle and decodes the response it
// appends.
func handleFrame(t *testing.T, s *Server, c *connState, req wire.Frame) wire.Frame {
	t.Helper()
	b, _ := s.handle(c, req, nil)
	resp, _, err := wire.Read(bytes.NewReader(b), nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDrainRefusesNewWork: after Drain begins, enqueues get
// RETRY(draining) while dequeues keep working.
func TestDrainRefusesNewWork(t *testing.T) {
	s := New(Config{Queue: core.NewMS[int]()})
	c := pipeServer(t, s)

	if resp, _ := c.enq(7); resp.Type != wire.Ack {
		t.Fatal("pre-drain enqueue failed")
	}

	drainDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { drainDone <- s.Drain(ctx) }()

	// Wait for the cut-over, then probe.
	for !s.draining.Load() {
		time.Sleep(100 * time.Microsecond)
	}
	resp, err := c.enq(8)
	if err != nil {
		t.Fatalf("enqueue during drain: conn error %v before RETRY", err)
	}
	if resp.Type != wire.Retry {
		t.Fatalf("enqueue during drain = %v, want RETRY", resp.Type)
	}
	reason, _, err := wire.DecodeRetry(resp.Payload)
	if err != nil || reason != wire.RetryDraining {
		t.Fatalf("drain retry reason = %v, %v; want draining", reason, err)
	}

	resp, err = c.deq()
	if err != nil || resp.Type != wire.Value {
		t.Fatalf("dequeue during drain = %v, %v; want VALUE (drain must flush acked work)", resp.Type, err)
	}
	if v, _ := wire.DecodeValue(resp.Payload); v != 7 {
		t.Fatalf("drained value = %d, want 7", v)
	}

	if err := <-drainDone; err != nil {
		t.Fatalf("Drain = %v, want nil after backlog flushed", err)
	}
}

// TestDrainTimeout: a backlog nobody consumes bounds the drain at the
// context deadline instead of hanging, and reports the residue.
func TestDrainTimeout(t *testing.T) {
	s := New(Config{Queue: core.NewMS[int]()})
	c := pipeServer(t, s)
	if resp, _ := c.enq(1); resp.Type != wire.Ack {
		t.Fatal("enqueue failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("Drain with unconsumed backlog = nil, want deadline error")
	}
	if got := s.Backlog(); got != 1 {
		t.Fatalf("residual backlog = %d, want 1", got)
	}
}

// TestConnLimit: connections beyond MaxConns are refused with an ERR
// frame and closed; a slot freed by a disconnect is reusable.
func TestConnLimit(t *testing.T) {
	s := New(Config{Queue: core.NewMS[int](), MaxConns: 1, Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()

	dial := func() net.Conn {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}

	first := dial()
	defer first.Close()
	c1 := &rawConn{t: t, conn: first}
	if resp, err := c1.enq(1); err != nil || resp.Type != wire.Ack {
		t.Fatalf("first conn enq = %v, %v", resp.Type, err)
	}

	second := dial()
	f, _, err := wire.Read(second, nil)
	if err != nil || f.Type != wire.Err {
		t.Fatalf("over-limit conn read = %v, %v; want ERR frame", f.Type, err)
	}
	if _, _, err := wire.Read(second, nil); err == nil {
		t.Fatal("over-limit conn stayed open after ERR")
	}
	second.Close()

	first.Close()
	// The slot release is asynchronous (the handler notices the close);
	// poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		third := dial()
		c3 := &rawConn{t: t, conn: third}
		resp, err := c3.enq(2)
		if err == nil && resp.Type == wire.Ack {
			third.Close()
			break
		}
		third.Close()
		if time.Now().After(deadline) {
			t.Fatal("freed connection slot never became reusable")
		}
		time.Sleep(time.Millisecond)
	}
}

// fakeConn is a net.Conn that reads a fixed request stream and records
// what is written to it. Reads return at most 64 bytes, so a stream of
// small frames arrives a few frames at a time. With fail set, Write fails
// once limit bytes have been written, as on a connection the peer reset.
type fakeConn struct {
	net.Conn // nil: ServeConn calls only the methods below
	in       []byte
	out      bytes.Buffer
	fail     bool
	limit    int
}

func (c *fakeConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 64)], c.in)
	c.in = c.in[n:]
	return n, nil
}

func (c *fakeConn) Write(p []byte) (int, error) {
	if c.fail && c.out.Len()+len(p) > c.limit {
		n := max(c.limit-c.out.Len(), 0)
		c.out.Write(p[:n])
		return n, io.ErrClosedPipe
	}
	return c.out.Write(p)
}

func (c *fakeConn) Close() error                     { return nil }
func (c *fakeConn) RemoteAddr() net.Addr             { return nil }
func (c *fakeConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fakeConn) SetWriteDeadline(time.Time) error { return nil }

// TestWriteFailureRequeuesInFlight: when the frame write itself fails —
// not just the trailing flush — the failing frame's dequeued values must
// be requeued and their backlog conserved. A VALUES frame above the write
// buffer's size makes wire.Write hit the dead connection directly,
// exercising the write-error branch rather than the flush-error one.
func TestWriteFailureRequeuesInFlight(t *testing.T) {
	const n = 8192 // a 64 KiB payload
	s := New(Config{Queue: core.NewMS[int](), Logf: t.Logf})
	for i := 0; i < n; i++ {
		s.cfg.Queue.Enqueue(i)
	}
	s.backlog.Add(n) // as the enqueues that produced the values did

	s.ServeConn(&fakeConn{in: encodeFrames(t, wire.DeqBatchFrame(1, n)), fail: true})

	if got := s.Lost(); got != 0 {
		t.Fatalf("Lost = %d, want 0 (the unbounded queue takes everything back)", got)
	}
	if got := s.Backlog(); got != n {
		t.Fatalf("Backlog = %d, want %d (undelivered values stay acknowledged)", got, n)
	}
	requeued := 0
	for {
		if _, ok := s.cfg.Queue.Dequeue(); !ok {
			break
		}
		requeued++
	}
	if requeued != n {
		t.Fatalf("requeued %d values, want %d: the failing frame's values leaked", requeued, n)
	}
}

// encodeFrames returns the wire encoding of fs, back to back.
func encodeFrames(t testing.TB, fs ...wire.Frame) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, f := range fs {
		if err := wire.Write(&b, f); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// countingConn counts the Write calls that reach the connection.
type countingConn struct {
	net.Conn
	writes *int
}

func (c countingConn) Write(p []byte) (int, error) {
	*c.writes++
	return c.Conn.Write(p)
}

// TestPipelinedBurstIsOneWrite: requests that arrive together are answered
// together. Sixteen frames sent in one Write are all buffered before the
// server's first response, so it flushes once, before the read that would
// block.
func TestPipelinedBurstIsOneWrite(t *testing.T) {
	const n = 16
	s := New(Config{Queue: core.NewMS[int]()})
	client, srvEnd := net.Pipe()
	defer client.Close()
	writes := 0 // read only after ServeConn has returned
	done := make(chan struct{})
	go func() { s.ServeConn(countingConn{srvEnd, &writes}); close(done) }()

	burst := make([]wire.Frame, n)
	for i := range burst {
		burst[i] = wire.EnqFrame(uint64(i+1), int64(i))
	}
	if _, err := client.Write(encodeFrames(t, burst...)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := 1; i <= n; i++ {
		f, newBuf, err := wire.Read(client, buf)
		buf = newBuf
		if err != nil || f.Type != wire.Ack || f.ID != uint64(i) {
			t.Fatalf("response %d = %v id=%d, %v; want ACK id=%d", i, f.Type, f.ID, err, i)
		}
	}
	client.Close()
	<-done
	if writes != 1 {
		t.Fatalf("%d requests sent in one write were answered in %d writes, want 1", n, writes)
	}
}

// deadlineConn counts the deadline calls made on a connection.
type deadlineConn struct {
	net.Conn
	calls *int
}

func (c deadlineConn) SetReadDeadline(t time.Time) error {
	*c.calls++
	return c.Conn.SetReadDeadline(t)
}

func (c deadlineConn) SetWriteDeadline(t time.Time) error {
	*c.calls++
	return c.Conn.SetWriteDeadline(t)
}

// TestBurstArmsDeadlinesPerRead: the idle and write deadlines are armed
// before reads that could block and before flushes, not per frame, so a
// pipelined burst of n frames costs fewer than n deadline calls.
func TestBurstArmsDeadlinesPerRead(t *testing.T) {
	const n = 64
	s := New(Config{Queue: core.NewMS[int](), IdleTimeout: time.Minute, WriteTimeout: time.Minute})
	client, srvEnd := net.Pipe()
	defer client.Close()
	calls := 0 // read only after ServeConn has returned
	done := make(chan struct{})
	go func() { s.ServeConn(deadlineConn{srvEnd, &calls}); close(done) }()

	burst := make([]wire.Frame, n)
	for i := range burst {
		burst[i] = wire.EnqFrame(uint64(i+1), int64(i))
	}
	if _, err := client.Write(encodeFrames(t, burst...)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := 1; i <= n; i++ {
		f, newBuf, err := wire.Read(client, buf)
		buf = newBuf
		if err != nil || f.Type != wire.Ack || f.ID != uint64(i) {
			t.Fatalf("response %d = %v id=%d, %v; want ACK id=%d", i, f.Type, f.ID, err, i)
		}
	}
	client.Close()
	<-done
	if calls >= n {
		t.Fatalf("a burst of %d frames made %d deadline calls, want fewer than %d", n, calls, n)
	}
}

// TestPartialFrameDoesNotHoldBackResponse: a response is flushed before
// the server waits for the rest of a frame that has begun to arrive. The
// client sends frame A with the first bytes of frame B and must get A's
// response before it sends the rest of B; a server that flushed only on an
// empty read buffer would hold A's response behind B.
func TestPartialFrameDoesNotHoldBackResponse(t *testing.T) {
	s := New(Config{Queue: core.NewMS[int]()})
	c := pipeServer(t, s)
	for _, cut := range []int{1, 5, 17} { // in the header, at its end, one byte short
		a, b := c.nextID(), c.nextID()
		next := encodeFrames(t, wire.PingFrame(b))
		if _, err := c.conn.Write(append(encodeFrames(t, wire.PingFrame(a)), next[:cut]...)); err != nil {
			t.Fatal(err)
		}
		c.conn.SetReadDeadline(time.Now().Add(time.Second))
		if f, _, err := wire.Read(c.conn, nil); err != nil || f.Type != wire.Pong || f.ID != a {
			t.Fatalf("cut %d: response to the whole frame = %v id=%d, %v; want PONG id=%d before the rest of the next frame is sent", cut, f.Type, f.ID, err, a)
		}
		if _, err := c.conn.Write(next[cut:]); err != nil {
			t.Fatal(err)
		}
		if f, _, err := wire.Read(c.conn, nil); err != nil || f.Type != wire.Pong || f.ID != b {
			t.Fatalf("cut %d: response to the completed frame = %v id=%d, %v; want PONG id=%d", cut, f.Type, f.ID, err, b)
		}
		c.conn.SetReadDeadline(time.Time{})
	}
}

// TestIdleTimeoutReapsSilentConn: a connection that sends nothing is
// closed after IdleTimeout (releasing its MaxConns slot), while a
// connection that keeps sending frames refreshes its deadline and lives.
func TestIdleTimeoutReapsSilentConn(t *testing.T) {
	s := New(Config{Queue: core.NewMS[int](), IdleTimeout: 25 * time.Millisecond, Logf: t.Logf})

	silent, srvEnd := net.Pipe()
	defer silent.Close()
	done := make(chan struct{})
	go func() { s.ServeConn(srvEnd); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("silent connection was never reaped")
	}

	// An active connection outlives many idle windows.
	c := pipeServer(t, s)
	for i := int64(0); i < 5; i++ {
		time.Sleep(10 * time.Millisecond)
		resp, err := c.enq(i)
		if err != nil || resp.Type != wire.Ack {
			t.Fatalf("active conn enq %d = %v, %v; want ACK (deadline must refresh per frame)", i, resp, err)
		}
	}
}

// TestProtocolErrorCloses: a malformed or unknown frame gets ERR and the
// connection is closed.
func TestProtocolErrorCloses(t *testing.T) {
	s := New(Config{Queue: core.NewMS[int]()})
	c := pipeServer(t, s)

	resp, err := c.roundTrip(wire.Frame{Type: wire.Type(0x7F), ID: 1})
	if err != nil || resp.Type != wire.Err {
		t.Fatalf("unknown frame = %v, %v; want ERR", resp.Type, err)
	}
	if _, _, err := wire.Read(c.conn, nil); err != io.EOF && err != io.ErrUnexpectedEOF {
		t.Fatalf("connection after ERR: read = %v, want closed", err)
	}
}

// TestHintSurvivesPartialBatch is the regression test for the escalation
// reset bug: a *partially* accepted ENQ_BATCH proves the queue is full at
// this instant, so it must not collapse the per-connection backoff hint
// the way a fully accepted enqueue does. Before the fix, `handle` reset
// c.fulls on any non-refused batch, so the sequence below saw the hint
// fall back to its base value while refusals were still being issued.
func TestHintSurvivesPartialBatch(t *testing.T) {
	const (
		cap  = 4
		base = time.Millisecond
	)
	s := New(Config{Queue: ring.New[int](cap), RetryHint: base})
	c := pipeServer(t, s)

	for i := int64(0); i < cap; i++ {
		if resp, _ := c.enq(i); resp.Type != wire.Ack {
			t.Fatalf("fill enq %d = %v, want ACK", i, resp.Type)
		}
	}
	refuse := func(want time.Duration) {
		t.Helper()
		resp, err := c.enq(99)
		if err != nil || resp.Type != wire.Retry {
			t.Fatalf("enq on full = %v, %v; want RETRY", resp.Type, err)
		}
		_, hint, err := wire.DecodeRetry(resp.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if hint != want {
			t.Fatalf("retry hint = %v, want %v", hint, want)
		}
	}

	refuse(base)      // fulls 0 -> 1
	refuse(base << 1) // fulls 1 -> 2

	// Free one slot, then offer two: a partial accept of exactly one.
	if resp, _ := c.deq(); resp.Type != wire.Value {
		t.Fatal("dequeue failed")
	}
	resp, err := c.roundTrip(wire.EnqBatchFrame(c.nextID(), []int64{10, 11}))
	if err != nil || resp.Type != wire.Ack {
		t.Fatalf("partial batch = %v, %v; want ACK", resp.Type, err)
	}
	if n, _ := wire.DecodeCount(resp.Payload); n != 1 {
		t.Fatalf("partial batch accepted %d, want 1", n)
	}

	// The queue is full again and was never observed non-full: the
	// escalation must continue where it left off, not restart.
	refuse(base << 2) // fails pre-fix: the partial accept reset fulls

	// An empty batch is vacuously "accepted" and proves nothing either.
	resp, err = c.roundTrip(wire.EnqBatchFrame(c.nextID(), nil))
	if err != nil || resp.Type != wire.Ack {
		t.Fatalf("empty batch = %v, %v; want ACK", resp.Type, err)
	}
	refuse(base << 3)

	// A *fully* accepted batch is a genuine non-full observation: reset.
	for i := 0; i < 2; i++ {
		if resp, _ := c.deq(); resp.Type != wire.Value {
			t.Fatal("drain dequeue failed")
		}
	}
	resp, err = c.roundTrip(wire.EnqBatchFrame(c.nextID(), []int64{20, 21}))
	if err != nil || resp.Type != wire.Ack {
		t.Fatalf("full batch = %v, %v; want ACK", resp.Type, err)
	}
	if n, _ := wire.DecodeCount(resp.Payload); n != 2 {
		t.Fatalf("full batch accepted %d, want 2", n)
	}
	refuse(base) // back to base after the genuine acceptance
}

// TestServeConnEnforcesMaxConns is the regression test for the admission
// bypass: connections handed directly to ServeConn were registered in
// s.conns without ever being checked against Config.MaxConns, contradicting
// ServeConn's own doc comment. They must now go through the same ERR-refusal
// admission as accepted connections.
func TestServeConnEnforcesMaxConns(t *testing.T) {
	s := New(Config{Queue: core.NewMS[int](), MaxConns: 1, Logf: t.Logf})

	c1 := pipeServer(t, s)
	if resp, err := c1.enq(1); err != nil || resp.Type != wire.Ack {
		t.Fatalf("first conn enq = %v, %v; want ACK", resp, err)
	}

	// Second direct connection: over the limit, must be refused with an
	// ERR frame (id 0, no request read) and closed.
	client2, srv2 := net.Pipe()
	defer client2.Close()
	done := make(chan struct{})
	go func() { s.ServeConn(srv2); close(done) }()
	// Pre-fix, ServeConn admits the connection and sits waiting for a
	// request, so no frame ever arrives; the deadline turns that silent
	// admission into a fast failure.
	client2.SetReadDeadline(time.Now().Add(2 * time.Second))
	f, _, err := wire.Read(client2, nil)
	if err != nil {
		t.Fatalf("over-limit ServeConn sent no frame: %v (pre-fix: it serves silently)", err)
	}
	client2.SetReadDeadline(time.Time{})
	if f.Type != wire.Err || f.ID != 0 {
		t.Fatalf("over-limit ServeConn frame = %v id=%d, want ERR id=0", f.Type, f.ID)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("refused ServeConn did not return")
	}
	if _, _, err := wire.Read(client2, nil); err == nil {
		t.Fatal("refused connection stayed open after ERR")
	}

	// The admitted connection is unaffected by the refusal.
	if resp, err := c1.deq(); err != nil || resp.Type != wire.Value {
		t.Fatalf("first conn deq after refusal = %v, %v; want VALUE", resp, err)
	}

	// Closing the admitted connection releases its slot for a later direct
	// connection; the release is asynchronous, so poll the registry.
	c1.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("closed connection never left the registry")
		}
		time.Sleep(time.Millisecond)
	}
	c3 := pipeServer(t, s)
	if resp, err := c3.enq(2); err != nil || resp.Type != wire.Ack {
		t.Fatalf("direct conn after slot release = %v, %v; want ACK", resp, err)
	}
}

// TestWriteTimeoutUnpinsStalledReader: a peer that stops reading (net.Pipe
// with no reader is the limit case of a full TCP window) must not pin its
// connection's goroutine — or Drain — forever. With WriteTimeout the flush
// fails, the in-flight value is requeued, and a drain completes with the
// value still conserved.
func TestWriteTimeoutUnpinsStalledReader(t *testing.T) {
	q := core.NewMS[int]()
	q.Enqueue(77)
	s := New(Config{Queue: q, WriteTimeout: 30 * time.Millisecond})
	s.backlog.Add(1) // the pre-loaded value counts as acknowledged

	clientEnd, srvEnd := net.Pipe()
	done := make(chan struct{})
	go func() { s.ServeConn(srvEnd); close(done) }()

	// Ask for the value, then never read the response: the flush blocks on
	// the pipe until the write deadline fires, the value is requeued, and
	// the stalled connection's goroutine is free.
	if err := wire.Write(clientEnd, wire.DeqFrame(1)); err != nil {
		t.Fatal(err)
	}

	// A healthy consumer picks the requeued value up. Before the deadline
	// fires the queue is empty (the value is stuck in the stalled flush),
	// so poll.
	healthy := pipeServer(t, s)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := healthy.deq()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type == wire.Value {
			v, err := wire.DecodeValue(resp.Payload)
			if err != nil || v != 77 {
				t.Fatalf("redelivered value = %d, %v; want 77", v, err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("WriteTimeout never requeued the value held by the stalled flush")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lost := s.Lost(); lost != 0 {
		t.Fatalf("Lost = %d, want 0 (the value was requeued, not dropped)", lost)
	}

	// The backlog is settled, so Drain completes even though the stalled
	// connection never read its response; Drain's teardown unblocks its
	// reader.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain with a stalled reader = %v, want nil (WriteTimeout must unpin the connection)", err)
	}
	<-done
	clientEnd.Close()
}

// TestCorruptFrameTearsDownAndCounts: a frame that fails its checksum
// must close the connection (no resynchronisation, no ERR reply guessed
// from corrupt bytes) and count one detected corruption on the probe.
func TestCorruptFrameTearsDownAndCounts(t *testing.T) {
	probe := metrics.NewProbe()
	s := New(Config{Queue: core.NewMS[int](), Probe: probe})
	clientEnd, srvEnd := net.Pipe()
	done := make(chan struct{})
	go func() { s.ServeConn(srvEnd); close(done) }()
	defer clientEnd.Close()

	var raw bytes.Buffer
	if err := wire.Write(&raw, wire.EnqFrame(1, 42)); err != nil {
		t.Fatal(err)
	}
	b := raw.Bytes()
	b[len(b)-5] ^= 0x01 // flip a body byte; the trailer no longer matches
	if _, err := clientEnd.Write(b); err != nil {
		t.Fatal(err)
	}

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server kept the connection after a checksum mismatch")
	}
	if got := probe.Site(metrics.WireCorrupt); got != 1 {
		t.Fatalf("WireCorrupt = %d, want 1", got)
	}
	// Nothing was applied: corrupt bytes never reach the queue.
	if c := s.Counters(); c.Enqueued != 0 {
		t.Fatalf("corrupt ENQ applied: enqueued=%d", c.Enqueued)
	}

	// Bad magic (a v1 or alien peer) is the same teardown, same counter.
	clientEnd2, srvEnd2 := net.Pipe()
	done2 := make(chan struct{})
	go func() { s.ServeConn(srvEnd2); close(done2) }()
	defer clientEnd2.Close()
	// One byte is all the server needs: it rejects the magic before reading
	// further (a longer write would wedge on the synchronous pipe once the
	// server closes its end).
	if _, err := clientEnd2.Write([]byte{0x00}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done2:
	case <-time.After(5 * time.Second):
		t.Fatal("server kept the connection after a bad magic byte")
	}
	if got := probe.Site(metrics.WireCorrupt); got != 2 {
		t.Fatalf("WireCorrupt after bad magic = %d, want 2", got)
	}
}

// TestFlightRecorderEvents drives a full connection lifecycle against a
// capacity-1 bounded queue with a recorder attached and checks the event
// trail: open (with peer address), RETRY (with the escalating hint and
// reason), corruption teardown, close, and the drain bracket — the exact
// reconstruction "what happened before the stall" needs.
func TestFlightRecorderEvents(t *testing.T) {
	rec := telemetry.NewRecorder(64)
	s := New(Config{Queue: ring.New[int](1), RetryHint: time.Millisecond, Events: rec, Logf: t.Logf})
	c := pipeServer(t, s)

	if resp, err := c.enq(7); err != nil || resp.Type != wire.Ack {
		t.Fatalf("first enq: %v %v", resp.Type, err)
	}
	// Queue full: two refusals, the second with a doubled hint.
	for i, wantHint := range []time.Duration{time.Millisecond, 2 * time.Millisecond} {
		resp, err := c.enq(8)
		if err != nil || resp.Type != wire.Retry {
			t.Fatalf("refusal %d: %v %v", i, resp.Type, err)
		}
		reason, hint, err := wire.DecodeRetry(resp.Payload)
		if err != nil || reason != wire.RetryFull || hint != wantHint {
			t.Fatalf("refusal %d decoded %v/%v (%v), want full/%v", i, reason, hint, err, wantHint)
		}
	}

	// A corrupt frame tears the connection down and leaves an EvCorrupt.
	var raw bytes.Buffer
	if err := wire.Write(&raw, wire.EnqFrame(99, 1)); err != nil {
		t.Fatal(err)
	}
	b := raw.Bytes()
	b[len(b)-5] ^= 0x01
	if _, err := c.conn.Write(b); err != nil {
		t.Fatal(err)
	}
	// Wait for the teardown to land (ServeConn runs in a goroutine).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if hasKind(rec, telemetry.EvConnClose) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("EvConnClose never recorded after corrupt frame")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { // the drain needs a consumer for the backlogged element
		cl, srv := net.Pipe()
		defer cl.Close()
		go s.ServeConn(srv)
		rc := &rawConn{t: t, conn: cl}
		for {
			resp, err := rc.deq()
			if err != nil || resp.Type == wire.Value {
				return
			}
		}
	}()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	evs := rec.Events()
	byKind := map[telemetry.EventKind][]telemetry.Event{}
	for _, ev := range evs {
		byKind[ev.Kind] = append(byKind[ev.Kind], ev)
	}
	open := byKind[telemetry.EvConnOpen]
	if len(open) < 1 || open[0].Conn == 0 || open[0].Note == "" {
		t.Fatalf("EvConnOpen missing serial or address: %+v", open)
	}
	retries := byKind[telemetry.EvRetry]
	if len(retries) != 2 {
		t.Fatalf("EvRetry count = %d, want 2: %+v", len(retries), evs)
	}
	if retries[0].Conn != open[0].Conn || retries[0].Note != "full" ||
		retries[0].Arg != int64(time.Millisecond) || retries[1].Arg != int64(2*time.Millisecond) {
		t.Fatalf("EvRetry events wrong: %+v", retries)
	}
	if len(byKind[telemetry.EvCorrupt]) != 1 || byKind[telemetry.EvCorrupt][0].Note == "" {
		t.Fatalf("EvCorrupt missing or noteless: %+v", byKind[telemetry.EvCorrupt])
	}
	if len(byKind[telemetry.EvConnClose]) < 1 {
		t.Fatalf("EvConnClose missing: %+v", evs)
	}
	if len(byKind[telemetry.EvDrainBegin]) != 1 || len(byKind[telemetry.EvDrainEnd]) != 1 {
		t.Fatalf("drain bracket missing: %+v", evs)
	}
	if end := byKind[telemetry.EvDrainEnd][0]; end.Arg != 0 {
		t.Fatalf("EvDrainEnd residual backlog = %d, want 0", end.Arg)
	}
	// Kinds are ordered by Seq: open precedes its retries, drain-begin
	// precedes drain-end.
	if !(open[0].Seq < retries[0].Seq && byKind[telemetry.EvDrainBegin][0].Seq < byKind[telemetry.EvDrainEnd][0].Seq) {
		t.Fatalf("event ordering broken:\n%+v", evs)
	}
}

func hasKind(rec *telemetry.Recorder, k telemetry.EventKind) bool {
	for _, ev := range rec.Events() {
		if ev.Kind == k {
			return true
		}
	}
	return false
}
