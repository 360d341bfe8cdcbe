// Package client is the pipelined client side of the wire protocol: the
// way a remote process reaches any catalog queue served by
// internal/server.
//
// # Pipelining
//
// Any number of goroutines may share one Client; each in-flight request
// holds a slot in a pending table keyed by request id, so many requests
// overlap on one connection and responses are matched as they arrive.
// Per-goroutine order is preserved (each goroutine waits for its response
// before its next request), which is all a queue client can use anyway.
//
// # Failure semantics
//
// The client distinguishes the two failure shapes the wire protocol can
// produce, because they demand opposite reactions:
//
//   - RETRY frames mean the server read the request and refused it
//     without applying it — the queue was full (back off for the hinted
//     interval, jittered, and resend) or the server is draining (give
//     up: ErrDraining). The connection is healthy; reconnecting would be
//     wrong.
//   - Connection errors mean the request's fate is unknown. Detected
//     corruption (wire.ErrChecksum) and version desync (wire.ErrBadMagic)
//     are connection errors too: a stream that carried one lying byte
//     cannot be trusted to carry the next frame, so it is torn down, not
//     resynchronised. The client redials with jittered backoff and
//     resends requests that never got
//     a response. For enqueues this is at-least-once: an enqueue whose
//     ACK was lost in the failure window may be applied twice. What can
//     never happen is a resend after the ACK arrived — response
//     delivery and connection teardown resolve each pending request
//     exactly once, so an acknowledged enqueue is final.
//
// Callers who cannot tolerate the at-least-once window should treat a
// connection error as doubt, not as loss, and reconcile out of band;
// the wire protocol carries no dedup ids (DESIGN §12 discusses why).
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"msqueue/internal/backoff"
	"msqueue/internal/wire"
)

// ErrDraining is returned when the server refuses new work because it is
// shutting down gracefully. Dequeues keep working until the drain
// completes; enqueues against this server are futile.
var ErrDraining = errors.New("client: server is draining")

// ErrClosed is returned for operations on a closed client.
var ErrClosed = errors.New("client: closed")

// Config parameterizes a Client.
type Config struct {
	// Addr is the server's TCP address, used by the default dialer.
	Addr string
	// Dial overrides how connections are made (tests use net.Pipe).
	Dial func() (net.Conn, error)
	// DialTimeout, when positive, bounds how long one dial attempt may
	// take before it fails like any other connection error. A blackholed
	// SYN — a peer that neither accepts nor refuses — would otherwise
	// wedge the first operation forever; with a bound it falls over to
	// the reconnect backoff like a refused dial. Applies to the default
	// TCP dialer and to a custom Dial alike. 0 means no bound.
	DialTimeout time.Duration
	// MaxReconnects bounds consecutive redial attempts for one operation
	// before it fails (default 8). Each attempt waits a jittered,
	// exponentially growing interval.
	MaxReconnects int
	// ReconnectMin and ReconnectMax override the redial backoff bounds
	// (defaults backoff.DefaultMinSleep/DefaultMaxSleep).
	ReconnectMin, ReconnectMax time.Duration
	// OpTimeout, when positive, bounds one attempt end to end: the
	// request write (as a write deadline on the connection) and the wait
	// for the response frame. A server that stops responding — or a
	// blackholed link that accepts no bytes at all — would otherwise
	// block the caller forever; on timeout the connection is dropped and
	// the attempt retried like any connection failure (the request's
	// fate is unknown — the usual at-least-once window applies). 0 means
	// wait indefinitely.
	OpTimeout time.Duration
	// Logf, when non-nil, receives reconnect diagnostics.
	Logf func(format string, args ...any)
}

const defaultMaxReconnects = 8

// Client is a connection to one queue server. Safe for concurrent use.
type Client struct {
	cfg Config

	// resends counts attempts retried after their request frame had
	// (possibly) left for the server — the exact size of the
	// at-least-once window: every duplicate a netchaos sweep may observe
	// must be attributable to one of these.
	resends atomic.Int64
	// corruptions counts connections dropped on a detected wire-integrity
	// failure (checksum mismatch or bad magic): the client-side mirror of
	// the server's metrics.WireCorrupt site.
	corruptions atomic.Int64

	mu     sync.Mutex
	conn   *connHandle
	closed bool
	dials  int
}

// connHandle is one connection's lifetime: its pending table and the
// reader goroutine that resolves it. A handle dies exactly once; every
// pending request is resolved either by its response frame or by the
// handle's death, never both.
type connHandle struct {
	conn net.Conn

	wmu sync.Mutex // serialises frame writes

	mu      sync.Mutex
	pending map[uint64]chan wire.Frame
	nextID  uint64
	dead    bool
	err     error
}

// New returns a Client for cfg; the first operation dials.
func New(cfg Config) *Client {
	if cfg.Dial == nil {
		addr, timeout := cfg.Addr, cfg.DialTimeout
		if timeout > 0 {
			cfg.Dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) }
		} else {
			cfg.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
		}
	} else if cfg.DialTimeout > 0 {
		cfg.Dial = dialWithTimeout(cfg.Dial, cfg.DialTimeout)
	}
	if cfg.MaxReconnects <= 0 {
		cfg.MaxReconnects = defaultMaxReconnects
	}
	return &Client{cfg: cfg}
}

// dialWithTimeout bounds an arbitrary dial function: if it has not
// returned within d, the attempt fails (and a connection that arrives
// late is closed, not leaked). This is what keeps a custom dialer — a
// proxy, a pipe factory, a netchaos wrapper — under the same liveness
// bound as the default TCP dialer.
func dialWithTimeout(dial func() (net.Conn, error), d time.Duration) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		type result struct {
			conn net.Conn
			err  error
		}
		ch := make(chan result, 1)
		go func() {
			conn, err := dial()
			ch <- result{conn, err} // buffered: never blocks
		}()
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case r := <-ch:
			return r.conn, r.err
		case <-timer.C:
			// The attempt is abandoned; a connection that arrives late is
			// closed, not leaked. The reaper blocks only as long as the
			// dial itself — the unavoidable cost of cancelling an
			// uncancellable function.
			go func() {
				if r := <-ch; r.conn != nil {
					r.conn.Close()
				}
			}()
			return nil, fmt.Errorf("client: dial timed out after %v", d)
		}
	}
}

// Dial returns a connected Client for the TCP address.
func Dial(addr string) (*Client, error) {
	c := New(Config{Addr: addr})
	if err := c.Ping(); err != nil {
		return nil, err
	}
	return c, nil
}

// Dials reports how many connections the client has established — the
// observable difference between a backoff-retry (dials stays flat) and a
// reconnect (dials grows), which the tests pin down.
func (c *Client) Dials() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dials
}

// Resends reports how many attempts were retried after their request
// frame had (possibly) reached the server — the size of the
// at-least-once window. A conservation checker may see at most this many
// duplicated enqueues; any more is a bug.
func (c *Client) Resends() int64 { return c.resends.Load() }

// Corruptions reports how many connections this client dropped on a
// detected wire-integrity failure (checksum mismatch or bad magic byte).
// Corruption is classified as a connection error — redial and resend —
// never as a response.
func (c *Client) Corruptions() int64 { return c.corruptions.Load() }

// Close tears down the connection and fails in-flight requests.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	h := c.conn
	c.conn = nil
	c.mu.Unlock()
	if h != nil {
		h.fail(ErrClosed)
	}
	return nil
}

// handle returns the live connection, dialing if needed.
func (c *Client) handle() (*connHandle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.conn != nil {
		return c.conn, nil
	}
	conn, err := c.cfg.Dial()
	if err != nil {
		return nil, err
	}
	h := &connHandle{conn: conn, pending: make(map[uint64]chan wire.Frame)}
	c.conn = h
	c.dials++
	go c.readLoop(h)
	return h, nil
}

// dropConn discards h if it is still the current connection, so the next
// operation redials. Idempotent across racing droppers.
func (c *Client) dropConn(h *connHandle, err error) {
	h.fail(err)
	c.mu.Lock()
	if c.conn == h {
		c.conn = nil
	}
	c.mu.Unlock()
}

// readLoop delivers responses to their pending slots until the
// connection dies, then fails the rest. Responses already delivered are
// untouchable: delivery removes the slot under the handle lock, so a
// request resolves exactly once — the invariant behind "an acknowledged
// enqueue is never resent".
func (c *Client) readLoop(h *connHandle) {
	var buf []byte
	for {
		f, newBuf, err := wire.Read(h.conn, buf)
		if err != nil {
			// A checksum or magic failure means the stream carried bytes
			// that are not the frame the server sent: the response (and
			// everything after it) is untrustworthy. Classified as a
			// connection error — the pending table resolves by handle
			// death and the attempts resend on a fresh connection.
			if errors.Is(err, wire.ErrChecksum) || errors.Is(err, wire.ErrBadMagic) {
				c.corruptions.Add(1)
				c.logf("dropping connection on wire integrity failure: %v", err)
			}
			c.dropConn(h, fmt.Errorf("client: connection lost: %w", err))
			return
		}
		buf = newBuf
		h.mu.Lock()
		ch, ok := h.pending[f.ID]
		delete(h.pending, f.ID)
		h.mu.Unlock()
		if ok {
			f.Payload = append([]byte(nil), f.Payload...) // detach from the read buffer
			ch <- f
		}
		// An unmatched id (e.g. an ERR broadcast with id 0) carries no
		// waiter; connection-fatal conditions surface as the read error
		// on the next iteration.
	}
}

// fail marks h dead and resolves every still-pending request with the
// handle's error by closing its channel.
func (h *connHandle) fail(err error) {
	h.mu.Lock()
	if h.dead {
		h.mu.Unlock()
		return
	}
	h.dead = true
	h.err = err
	pending := h.pending
	h.pending = nil
	h.mu.Unlock()
	h.conn.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// register allocates a request id and its response slot.
func (h *connHandle) register() (uint64, chan wire.Frame, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dead {
		return 0, nil, h.err
	}
	h.nextID++
	id := h.nextID
	ch := make(chan wire.Frame, 1)
	h.pending[id] = ch
	return id, ch, nil
}

// roundTrip sends the frame built by build and waits for its response,
// transparently redialling on connection failure. build is re-invoked per
// attempt with the fresh request id. Responses of type Err become errors.
func (c *Client) roundTrip(build func(id uint64) wire.Frame) (wire.Frame, error) {
	sleeper := backoff.Sleeper{Min: c.cfg.ReconnectMin, Max: c.cfg.ReconnectMax}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxReconnects; attempt++ {
		if attempt > 0 {
			time.Sleep(sleeper.Next(0))
		}
		h, err := c.handle()
		if err != nil {
			if err == ErrClosed {
				return wire.Frame{}, err
			}
			lastErr = err
			c.logf("dial failed (attempt %d/%d): %v", attempt+1, c.cfg.MaxReconnects+1, err)
			continue
		}
		id, ch, err := h.register()
		if err != nil {
			lastErr = err
			c.dropConn(h, err)
			continue
		}
		f := build(id)
		h.wmu.Lock()
		// OpTimeout bounds the write too, not just the response wait: a
		// blackholed peer that accepts no bytes would otherwise wedge
		// this attempt before the await even starts.
		if c.cfg.OpTimeout > 0 {
			h.conn.SetWriteDeadline(time.Now().Add(c.cfg.OpTimeout))
		}
		err = wire.Write(h.conn, f)
		h.wmu.Unlock()
		if err != nil {
			// The frame may have partially left before the write failed,
			// so this retry is inside the at-least-once window too.
			c.resends.Add(1)
			c.dropConn(h, fmt.Errorf("client: write: %w", err))
			lastErr = err
			continue
		}
		resp, ok, timedOut := c.await(ch)
		if timedOut {
			// The server went silent without closing the connection. Drop
			// it so the next attempt redials; the request's fate is
			// unknown, like any connection failure.
			c.resends.Add(1)
			lastErr = fmt.Errorf("client: no response within %v", c.cfg.OpTimeout)
			c.dropConn(h, lastErr)
			c.logf("%v request timed out after %v", f.Type, c.cfg.OpTimeout)
			continue
		}
		if !ok {
			// The connection died before this request's response. Its
			// fate is unknown; resend on a fresh connection
			// (at-least-once — see the package comment).
			c.resends.Add(1)
			lastErr = h.err
			c.logf("%v request resent after %v", f.Type, h.err)
			continue
		}
		if resp.Type == wire.Err {
			return wire.Frame{}, fmt.Errorf("client: server error: %s", resp.Payload)
		}
		return resp, nil
	}
	return wire.Frame{}, fmt.Errorf("client: giving up after %d attempts: %w", c.cfg.MaxReconnects+1, lastErr)
}

// await waits for one response slot to resolve, bounded by OpTimeout when
// configured. timedOut reports that the deadline fired first; the caller
// owns dropping the connection (the pending slot is then resolved by the
// handle's death, never read again).
func (c *Client) await(ch <-chan wire.Frame) (resp wire.Frame, ok, timedOut bool) {
	if c.cfg.OpTimeout <= 0 {
		resp, ok = <-ch
		return resp, ok, false
	}
	timer := time.NewTimer(c.cfg.OpTimeout)
	defer timer.Stop()
	select {
	case resp, ok = <-ch:
		return resp, ok, false
	case <-timer.C:
		return wire.Frame{}, false, true
	}
}

// Enqueue appends v, blocking through RETRY backpressure until the
// server accepts it. Returns ErrDraining when the server refuses new
// work permanently.
func (c *Client) Enqueue(v int) error {
	var sleeper backoff.Sleeper
	for {
		resp, err := c.roundTrip(func(id uint64) wire.Frame { return wire.EnqFrame(id, int64(v)) })
		if err != nil {
			return err
		}
		switch resp.Type {
		case wire.Ack:
			return nil
		case wire.Retry:
			if err := c.awaitRetry(resp, &sleeper); err != nil {
				return err
			}
		default:
			return fmt.Errorf("client: unexpected %v response to ENQ", resp.Type)
		}
	}
}

// TryEnqueue appends v unless the queue is full, reporting acceptance —
// the wire analogue of queue.Bounded.TryEnqueue (one attempt, no backoff
// loop).
func (c *Client) TryEnqueue(v int) (bool, error) {
	resp, err := c.roundTrip(func(id uint64) wire.Frame { return wire.EnqFrame(id, int64(v)) })
	if err != nil {
		return false, err
	}
	switch resp.Type {
	case wire.Ack:
		return true, nil
	case wire.Retry:
		reason, _, err := wire.DecodeRetry(resp.Payload)
		if err != nil {
			return false, err
		}
		if reason == wire.RetryDraining {
			return false, ErrDraining
		}
		return false, nil
	default:
		return false, fmt.Errorf("client: unexpected %v response to ENQ", resp.Type)
	}
}

// awaitRetry decodes a RETRY frame and sleeps out its jittered hint, or
// returns ErrDraining.
func (c *Client) awaitRetry(resp wire.Frame, sleeper *backoff.Sleeper) error {
	reason, hint, err := wire.DecodeRetry(resp.Payload)
	if err != nil {
		return err
	}
	if reason == wire.RetryDraining {
		return ErrDraining
	}
	time.Sleep(sleeper.Next(hint))
	return nil
}

// Dequeue removes the value at the head, reporting false on an empty
// queue. A dequeue resent across a connection failure may have consumed
// a value whose VALUE frame was lost; the server requeues what it can
// prove undelivered, but the in-flight window is at-most-once.
func (c *Client) Dequeue() (int, bool, error) {
	resp, err := c.roundTrip(wire.DeqFrame)
	if err != nil {
		return 0, false, err
	}
	switch resp.Type {
	case wire.Value:
		v, err := wire.DecodeValue(resp.Payload)
		return int(v), err == nil, err
	case wire.Empty:
		return 0, false, nil
	default:
		return 0, false, fmt.Errorf("client: unexpected %v response to DEQ", resp.Type)
	}
}

// EnqueueBatch appends all of vs in order, looping through partial
// accepts and RETRY backpressure. Returns how many were acknowledged
// (all of them, unless an error cut the loop short).
func (c *Client) EnqueueBatch(vs []int) (int, error) {
	done := 0
	var sleeper backoff.Sleeper
	for done < len(vs) {
		chunk := vs[done:]
		if len(chunk) > wire.MaxBatch {
			chunk = chunk[:wire.MaxBatch]
		}
		vals := make([]int64, len(chunk))
		for i, v := range chunk {
			vals[i] = int64(v)
		}
		resp, err := c.roundTrip(func(id uint64) wire.Frame { return wire.EnqBatchFrame(id, vals) })
		if err != nil {
			return done, err
		}
		switch resp.Type {
		case wire.Ack:
			n, err := wire.DecodeCount(resp.Payload)
			if err != nil {
				return done, err
			}
			if n > len(chunk) {
				return done, fmt.Errorf("client: ENQ_BATCH of %d values acknowledged %d", len(chunk), n)
			}
			done += n
			if n < len(chunk) {
				time.Sleep(sleeper.Next(0)) // partial accept: the queue is full
			} else {
				sleeper.Reset()
			}
		case wire.Retry:
			if err := c.awaitRetry(resp, &sleeper); err != nil {
				return done, err
			}
		default:
			return done, fmt.Errorf("client: unexpected %v response to ENQ_BATCH", resp.Type)
		}
	}
	return done, nil
}

// DequeueBatch fills dst from the head of the queue, returning how many
// values it wrote (0 on an empty queue).
func (c *Client) DequeueBatch(dst []int) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	max := len(dst)
	if max > wire.MaxBatch {
		max = wire.MaxBatch
	}
	resp, err := c.roundTrip(func(id uint64) wire.Frame { return wire.DeqBatchFrame(id, max) })
	if err != nil {
		return 0, err
	}
	switch resp.Type {
	case wire.Values:
		vs, err := wire.DecodeValues(resp.Payload)
		if err != nil {
			return 0, err
		}
		if len(vs) > max {
			return 0, fmt.Errorf("client: DEQ_BATCH of %d answered with %d values", max, len(vs))
		}
		for i, v := range vs {
			dst[i] = int(v)
		}
		return len(vs), nil
	case wire.Empty:
		return 0, nil
	default:
		return 0, fmt.Errorf("client: unexpected %v response to DEQ_BATCH", resp.Type)
	}
}

// Stats fetches the server's wire counters.
func (c *Client) Stats() (wire.Counters, error) {
	resp, err := c.roundTrip(wire.StatsFrame)
	if err != nil {
		return wire.Counters{}, err
	}
	if resp.Type != wire.StatsReply {
		return wire.Counters{}, fmt.Errorf("client: unexpected %v response to STATS", resp.Type)
	}
	return wire.DecodeCounters(resp.Payload)
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	resp, err := c.roundTrip(wire.PingFrame)
	if err != nil {
		return err
	}
	if resp.Type != wire.Pong {
		return fmt.Errorf("client: unexpected %v response to PING", resp.Type)
	}
	return nil
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
