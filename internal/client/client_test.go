package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"msqueue/internal/core"
	"msqueue/internal/ring"
	"msqueue/internal/server"
	"msqueue/internal/wire"
)

// startServer runs a server over loopback TCP and returns its address.
func startServer(t *testing.T, s *server.Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return l.Addr().String()
}

func TestClientBasics(t *testing.T) {
	addr := startServer(t, server.New(server.Config{Queue: core.NewMS[int]()}))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 10; i++ {
		if err := c.Enqueue(i); err != nil {
			t.Fatalf("Enqueue(%d): %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		v, ok, err := c.Dequeue()
		if err != nil || !ok || v != i {
			t.Fatalf("Dequeue = %d, %v, %v; want %d, true, nil", v, ok, err, i)
		}
	}
	if _, ok, err := c.Dequeue(); ok || err != nil {
		t.Fatalf("Dequeue on empty = ok=%v err=%v, want false, nil", ok, err)
	}

	if n, err := c.EnqueueBatch([]int{20, 21, 22}); err != nil || n != 3 {
		t.Fatalf("EnqueueBatch = %d, %v", n, err)
	}
	dst := make([]int, 8)
	if n, err := c.DequeueBatch(dst); err != nil || n != 3 || dst[0] != 20 || dst[2] != 22 {
		t.Fatalf("DequeueBatch = %d, %v, %v", n, err, dst[:3])
	}

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	counters, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if counters.Enqueued != 13 || counters.Dequeued != 13 {
		t.Fatalf("counters = %+v, want 13 enqueued and dequeued", counters)
	}
	if got := c.Dials(); got != 1 {
		t.Fatalf("Dials = %d, want 1 (no spurious reconnects)", got)
	}
}

// TestPipelinedSharing: goroutines sharing one client over one connection
// conserve values — the pending-table matching holds up under overlap.
func TestPipelinedSharing(t *testing.T) {
	addr := startServer(t, server.New(server.Config{Queue: core.NewMS[int]()}))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := c.Enqueue(w*per + i); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	seen := make(map[int]bool)
	for i := 0; i < workers*per; i++ {
		v, ok, err := c.Dequeue()
		if err != nil || !ok {
			t.Fatalf("dequeue %d = %v, %v", i, ok, err)
		}
		if seen[v] {
			t.Fatalf("value %d delivered twice", v)
		}
		seen[v] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("conserved %d values, want %d", len(seen), workers*per)
	}
	if got := c.Dials(); got != 1 {
		t.Fatalf("Dials = %d, want 1", got)
	}
}

// TestRetryDoesNotReconnect: a full bounded queue must produce backoff
// and eventual success on the SAME connection — RETRY is backpressure,
// not a connection failure.
func TestRetryDoesNotReconnect(t *testing.T) {
	const cap = 2
	addr := startServer(t, server.New(server.Config{
		Queue:     ring.New[int](cap),
		RetryHint: 100 * time.Microsecond,
	}))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Fill the queue, then drain it slowly from a second client while
	// the first pushes through the RETRY window.
	for i := 0; i < cap; i++ {
		if err := c.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	consumer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()
	go func() {
		for i := 0; i < 3; i++ {
			time.Sleep(2 * time.Millisecond)
			consumer.Dequeue()
		}
	}()

	for i := 0; i < 3; i++ {
		if err := c.Enqueue(100 + i); err != nil {
			t.Fatalf("Enqueue through backpressure: %v", err)
		}
	}
	if got := c.Dials(); got != 1 {
		t.Fatalf("Dials = %d, want 1: RETRY must not trigger reconnect", got)
	}

	counters, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if counters.Retries == 0 {
		t.Fatal("server reported no RETRY frames; the test never hit backpressure")
	}
}

// TestReconnectConservation forces a connection drop between operations
// and checks the client redials and no acknowledged value is lost or
// duplicated.
func TestReconnectConservation(t *testing.T) {
	addr := startServer(t, server.New(server.Config{Queue: core.NewMS[int]()}))

	// A dialer that remembers the live conn so the test can cut it.
	var mu sync.Mutex
	var current net.Conn
	c := New(Config{
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			current = conn
			mu.Unlock()
			return conn, nil
		},
		ReconnectMin: 100 * time.Microsecond,
		Logf:         t.Logf,
	})
	defer c.Close()

	const half = 50
	acked := make([]int, 0, 2*half)
	for i := 0; i < half; i++ {
		if err := c.Enqueue(i); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, i)
	}

	// Cut the connection at a quiescent point (no request in flight), so
	// at-least-once cannot manufacture duplicates and the check stays
	// exact.
	mu.Lock()
	current.Close()
	mu.Unlock()

	for i := half; i < 2*half; i++ {
		if err := c.Enqueue(i); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, i)
	}
	if got := c.Dials(); got != 2 {
		t.Fatalf("Dials = %d, want 2 (one reconnect)", got)
	}

	seen := make(map[int]bool)
	for range acked {
		v, ok, err := c.Dequeue()
		if err != nil || !ok {
			t.Fatalf("dequeue = %v, %v with %d/%d recovered", ok, err, len(seen), len(acked))
		}
		if seen[v] {
			t.Fatalf("value %d delivered twice across reconnect", v)
		}
		seen[v] = true
	}
	for _, v := range acked {
		if !seen[v] {
			t.Fatalf("acked value %d lost across reconnect", v)
		}
	}
	if _, ok, _ := c.Dequeue(); ok {
		t.Fatal("queue still had values after all acked were recovered")
	}
}

// TestNoDoubleApplyAfterAck is the satellite regression: a server that
// acks an enqueue and immediately drops the connection must not see the
// enqueue again on the next connection.
func TestNoDoubleApplyAfterAck(t *testing.T) {
	var mu sync.Mutex
	enqsSeen := 0

	// Scripted server: connection 1 acks one ENQ then slams the door;
	// connection 2 behaves. Every ENQ that arrives is counted.
	script := func(connIdx int, conn net.Conn) {
		defer conn.Close()
		var buf []byte
		for {
			f, newBuf, err := wire.Read(conn, buf)
			if err != nil {
				return
			}
			buf = newBuf
			switch f.Type {
			case wire.Enq:
				mu.Lock()
				enqsSeen++
				mu.Unlock()
				if err := wire.Write(conn, wire.AckFrame(f.ID)); err != nil {
					return
				}
				if connIdx == 0 {
					return // ack delivered, connection dropped: the adversarial window
				}
			case wire.Ping:
				if err := wire.Write(conn, wire.PongFrame(f.ID)); err != nil {
					return
				}
			default:
				t.Errorf("scripted server: unexpected %v", f.Type)
				return
			}
		}
	}

	conns := 0
	c := New(Config{
		Dial: func() (net.Conn, error) {
			clientEnd, serverEnd := net.Pipe()
			mu.Lock()
			idx := conns
			conns++
			mu.Unlock()
			go script(idx, serverEnd)
			return clientEnd, nil
		},
		ReconnectMin: 100 * time.Microsecond,
	})
	defer c.Close()

	if err := c.Enqueue(7); err != nil {
		t.Fatalf("Enqueue whose ack raced the close = %v, want nil", err)
	}
	// The next operation must reconnect (conn 1 is dead) — and must NOT
	// resend the acknowledged enqueue.
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after drop: %v", err)
	}
	if err := c.Enqueue(8); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if enqsSeen != 2 {
		t.Fatalf("server saw %d ENQ frames, want 2: an acked enqueue was resent", enqsSeen)
	}
	if conns < 2 {
		t.Fatalf("client used %d connections, want >= 2 (it must have reconnected)", conns)
	}
}

// TestUnackedEnqueueIsResent pins the other side of the contract: an
// enqueue whose connection dies BEFORE any response must be resent on
// the next connection (at-least-once), not dropped.
func TestUnackedEnqueueIsResent(t *testing.T) {
	var mu sync.Mutex
	enqsSeen := 0

	script := func(connIdx int, conn net.Conn) {
		defer conn.Close()
		var buf []byte
		for {
			f, newBuf, err := wire.Read(conn, buf)
			if err != nil {
				return
			}
			buf = newBuf
			if f.Type != wire.Enq {
				t.Errorf("scripted server: unexpected %v", f.Type)
				return
			}
			mu.Lock()
			enqsSeen++
			mu.Unlock()
			if connIdx == 0 {
				return // no ack: the request's fate is ambiguous
			}
			if err := wire.Write(conn, wire.AckFrame(f.ID)); err != nil {
				return
			}
		}
	}

	conns := 0
	c := New(Config{
		Dial: func() (net.Conn, error) {
			clientEnd, serverEnd := net.Pipe()
			mu.Lock()
			idx := conns
			conns++
			mu.Unlock()
			go script(idx, serverEnd)
			return clientEnd, nil
		},
		ReconnectMin: 100 * time.Microsecond,
	})
	defer c.Close()

	if err := c.Enqueue(7); err != nil {
		t.Fatalf("Enqueue = %v, want nil via resend", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if enqsSeen != 2 {
		t.Fatalf("server saw %d ENQ frames, want 2 (original + resend)", enqsSeen)
	}
}

// TestDrainingSurfacesError: RETRY(draining) is terminal for enqueues,
// while dequeues keep flowing during the drain.
func TestDrainingSurfacesError(t *testing.T) {
	s := server.New(server.Config{Queue: core.NewMS[int]()})
	addr := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Enqueue(1); err != nil {
		t.Fatal(err)
	}
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		s.Drain(drainCtx(t))
	}()
	waitDraining(t, c)

	if err := c.Enqueue(2); !errors.Is(err, ErrDraining) {
		t.Fatalf("Enqueue during drain = %v, want ErrDraining", err)
	}
	v, ok, err := c.Dequeue()
	if err != nil || !ok || v != 1 {
		t.Fatalf("Dequeue during drain = %d, %v, %v; want 1", v, ok, err)
	}
	<-drainDone
}

// TestGiveUpAfterMaxReconnects: a dead address fails the operation after
// the configured attempts instead of spinning forever.
func TestGiveUpAfterMaxReconnects(t *testing.T) {
	dialErr := errors.New("nothing listening")
	c := New(Config{
		Dial:          func() (net.Conn, error) { return nil, dialErr },
		MaxReconnects: 3,
		ReconnectMin:  10 * time.Microsecond,
		ReconnectMax:  50 * time.Microsecond,
	})
	defer c.Close()
	err := c.Enqueue(1)
	if err == nil || !errors.Is(err, dialErr) {
		t.Fatalf("Enqueue against dead server = %v, want wrapped dial error", err)
	}
}

// TestOpTimeoutDropsSilentServer: a server that reads requests but never
// answers must not block the caller forever. With OpTimeout set the
// attempt times out, the connection is dropped, and the retry succeeds
// once the dialer reaches a live server.
func TestOpTimeoutDropsSilentServer(t *testing.T) {
	s := server.New(server.Config{Queue: core.NewMS[int]()})
	defer s.Close()

	// First dial lands on a black hole that swallows frames; every later
	// dial reaches the real server.
	var mu sync.Mutex
	dialed := 0
	c := New(Config{
		Dial: func() (net.Conn, error) {
			mu.Lock()
			dialed++
			first := dialed == 1
			mu.Unlock()
			clientEnd, srvEnd := net.Pipe()
			if first {
				go func() {
					buf := make([]byte, 1024)
					for {
						if _, err := srvEnd.Read(buf); err != nil {
							return
						}
					}
				}()
			} else {
				go s.ServeConn(srvEnd)
			}
			return clientEnd, nil
		},
		OpTimeout:    50 * time.Millisecond,
		ReconnectMin: 100 * time.Microsecond,
		Logf:         t.Logf,
	})
	defer c.Close()

	start := time.Now()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping through a silent first connection = %v, want success after timeout+redial", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("Ping returned in %v, before the %v timeout could have fired", elapsed, 50*time.Millisecond)
	}
	if got := c.Dials(); got != 2 {
		t.Fatalf("Dials = %d, want 2 (timeout must drop the silent connection)", got)
	}
}

// TestOpTimeoutExhaustsAttempts: when every connection stays silent the
// operation fails with the timeout error instead of hanging.
func TestOpTimeoutExhaustsAttempts(t *testing.T) {
	c := New(Config{
		Dial: func() (net.Conn, error) {
			clientEnd, srvEnd := net.Pipe()
			go func() {
				buf := make([]byte, 1024)
				for {
					if _, err := srvEnd.Read(buf); err != nil {
						return
					}
				}
			}()
			return clientEnd, nil
		},
		OpTimeout:     20 * time.Millisecond,
		MaxReconnects: 2,
		ReconnectMin:  100 * time.Microsecond,
	})
	defer c.Close()
	if err := c.Ping(); err == nil {
		t.Fatal("Ping against permanently silent servers = nil, want timeout error")
	}
}

// lingerConn keeps reading after the client closes it, so bytes the peer
// sends late still reach the client's read loop.
type lingerConn struct{ net.Conn }

func (lingerConn) Close() error { return nil }

// TestLateResponseNeverMisdelivered: a call slot whose call timed out is
// never reused. The first server reads a DEQ and answers it, with a value
// nothing enqueued, only after the client has timed out and redialled;
// the answer reaches the abandoned connection's read loop. No later call
// may receive it, and every later call must get its own response.
func TestLateResponseNeverMisdelivered(t *testing.T) {
	const stale = 666
	s := server.New(server.Config{Queue: core.NewMS[int]()})
	defer s.Close()
	redialled := make(chan struct{})
	var mu sync.Mutex
	var first net.Conn
	dials := 0
	c := New(Config{
		Dial: func() (net.Conn, error) {
			clientEnd, srvEnd := net.Pipe()
			mu.Lock()
			defer mu.Unlock()
			dials++
			if dials > 1 {
				if dials == 2 {
					close(redialled)
				}
				go s.ServeConn(srvEnd)
				return clientEnd, nil
			}
			first = clientEnd
			go func() {
				f, _, err := wire.Read(srvEnd, nil)
				if err != nil {
					return
				}
				<-redialled
				wire.Write(srvEnd, wire.ValueFrame(f.ID, stale))
			}()
			return lingerConn{clientEnd}, nil
		},
		OpTimeout:    50 * time.Millisecond,
		ReconnectMin: 100 * time.Microsecond,
	})
	defer func() {
		c.Close()
		mu.Lock()
		first.Close()
		mu.Unlock()
	}()

	// A misdelivered response can also wedge the client, so the calls run
	// under a watchdog.
	errc := make(chan error, 1)
	go func() {
		if v, ok, err := c.Dequeue(); err != nil || ok {
			errc <- fmt.Errorf("Dequeue through a late first server = %d, %v, %v; want empty from the live server", v, ok, err)
			return
		}
		for i := 0; i < 100; i++ {
			if err := c.Enqueue(i); err != nil {
				errc <- fmt.Errorf("Enqueue(%d): %v", i, err)
				return
			}
			if v, ok, err := c.Dequeue(); err != nil || !ok || v != i {
				errc <- fmt.Errorf("Dequeue after Enqueue(%d) = %d, %v, %v; want %d", i, v, ok, err, i)
				return
			}
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("calls after the late response did not complete")
	}
	if got := c.Dials(); got != 2 {
		t.Fatalf("Dials = %d, want 2", got)
	}
}

func drainCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// waitDraining polls Stats until the server reports its drain flag.
func waitDraining(t *testing.T, c *Client) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		counters, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if counters.Draining {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("server never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDialTimeoutBoundsBlackholedDial: a dial that never completes — a
// blackholed SYN, a hung proxy — must fail over to the reconnect backoff
// within DialTimeout instead of wedging the first operation forever.
func TestDialTimeoutBoundsBlackholedDial(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	c := New(Config{
		Dial: func() (net.Conn, error) {
			<-hang // never completes while the test runs
			return nil, errors.New("late")
		},
		DialTimeout:   20 * time.Millisecond,
		MaxReconnects: 2,
		ReconnectMin:  100 * time.Microsecond,
	})
	defer c.Close()

	start := time.Now()
	err := c.Ping()
	if err == nil {
		t.Fatal("Ping through a hung dialer = nil, want timeout error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Ping took %v to fail; DialTimeout did not bound the attempts", elapsed)
	}
}

// TestDialTimeoutDefaultDialer: the TCP fast path uses net.DialTimeout —
// a dial to a blackholed address space must fail within the bound. (A
// routable-but-dropping address cannot be relied on in CI, so this only
// asserts the refused-connection path still works with the bound set.)
func TestDialTimeoutDefaultDialer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // nothing listens here any more: dials are refused promptly
	c := New(Config{Addr: addr, DialTimeout: 50 * time.Millisecond, MaxReconnects: 1, ReconnectMin: 100 * time.Microsecond})
	defer c.Close()
	if err := c.Ping(); err == nil {
		t.Fatal("Ping against a closed port = nil, want dial error")
	}
}

// TestCorruptionClassifiedAsConnError: a response frame whose bytes were
// corrupted in flight must never be interpreted; the client counts the
// integrity failure, drops the connection, redials and resends, and the
// operation succeeds on the fresh connection.
func TestCorruptionClassifiedAsConnError(t *testing.T) {
	var mu sync.Mutex
	enqsSeen := 0

	script := func(connIdx int, conn net.Conn) {
		defer conn.Close()
		var buf []byte
		for {
			f, newBuf, err := wire.Read(conn, buf)
			if err != nil {
				return
			}
			buf = newBuf
			if f.Type != wire.Enq {
				t.Errorf("scripted server: unexpected %v", f.Type)
				return
			}
			mu.Lock()
			enqsSeen++
			mu.Unlock()
			if connIdx == 0 {
				// Corrupt the ack: flip a byte of the encoded frame past
				// the header so the checksum — not the magic or length —
				// catches it.
				var raw bytes.Buffer
				if err := wire.Write(&raw, wire.AckFrame(f.ID)); err != nil {
					t.Error(err)
					return
				}
				b := raw.Bytes()
				b[len(b)-5] ^= 0x20 // a body byte (before the 4-byte trailer)
				conn.Write(b)
				return
			}
			if err := wire.Write(conn, wire.AckFrame(f.ID)); err != nil {
				return
			}
		}
	}

	conns := 0
	c := New(Config{
		Dial: func() (net.Conn, error) {
			clientEnd, serverEnd := net.Pipe()
			mu.Lock()
			idx := conns
			conns++
			mu.Unlock()
			go script(idx, serverEnd)
			return clientEnd, nil
		},
		ReconnectMin: 100 * time.Microsecond,
	})
	defer c.Close()

	if err := c.Enqueue(41); err != nil {
		t.Fatalf("Enqueue whose ack was corrupted = %v, want nil via resend", err)
	}
	if got := c.Corruptions(); got != 1 {
		t.Fatalf("Corruptions = %d, want 1", got)
	}
	if got := c.Dials(); got < 2 {
		t.Fatalf("Dials = %d, want >= 2 (corruption must force a redial)", got)
	}
	if got := c.Resends(); got < 1 {
		t.Fatalf("Resends = %d, want >= 1 (the unacked enqueue was resent)", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if enqsSeen != 2 {
		t.Fatalf("server saw %d ENQ frames, want 2 (original + resend after corruption)", enqsSeen)
	}
}

// TestBatchConservationAcrossMidFrameCutover pins the EnqBatch resend
// contract across a partial ack followed by connection death: the acked
// prefix must be delivered exactly once (never resent), the unacked
// remainder must be resent on the fresh connection, and the conservation
// ledger must close — every value applied exactly once.
func TestBatchConservationAcrossMidFrameCutover(t *testing.T) {
	const (
		total       = 8
		ackedPrefix = 5
	)
	var mu sync.Mutex
	var applied []int64

	script := func(connIdx int, conn net.Conn) {
		defer conn.Close()
		var buf []byte
		for {
			f, newBuf, err := wire.Read(conn, buf)
			if err != nil {
				return
			}
			buf = newBuf
			if f.Type != wire.EnqBatch {
				t.Errorf("scripted server: unexpected %v", f.Type)
				return
			}
			vs, err := wire.DecodeValues(f.Payload)
			if err != nil {
				t.Errorf("scripted server: %v", err)
				return
			}
			if connIdx == 0 {
				// Apply and ack a strict prefix — the queue "filled" — then
				// kill the connection with the client mid-batch.
				n := ackedPrefix
				if n > len(vs) {
					n = len(vs)
				}
				mu.Lock()
				applied = append(applied, vs[:n]...)
				mu.Unlock()
				if err := wire.Write(conn, wire.AckCountFrame(f.ID, n)); err != nil {
					return
				}
				return // cut-over: the rest of the batch is the client's problem
			}
			mu.Lock()
			applied = append(applied, vs...)
			mu.Unlock()
			if err := wire.Write(conn, wire.AckCountFrame(f.ID, len(vs))); err != nil {
				return
			}
		}
	}

	conns := 0
	c := New(Config{
		Dial: func() (net.Conn, error) {
			clientEnd, serverEnd := net.Pipe()
			mu.Lock()
			idx := conns
			conns++
			mu.Unlock()
			go script(idx, serverEnd)
			return clientEnd, nil
		},
		ReconnectMin: 100 * time.Microsecond,
	})
	defer c.Close()

	vs := make([]int, total)
	for i := range vs {
		vs[i] = 100 + i
	}
	n, err := c.EnqueueBatch(vs)
	if err != nil || n != total {
		t.Fatalf("EnqueueBatch = %d, %v; want %d, nil", n, err, total)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(applied) != total {
		t.Fatalf("server applied %d values, want exactly %d: %v", len(applied), total, applied)
	}
	for i, v := range applied {
		if v != int64(100+i) {
			t.Fatalf("applied[%d] = %d, want %d (prefix resent or order broken): %v", i, v, 100+i, applied)
		}
	}
	if conns < 2 {
		t.Fatalf("client used %d connections, want >= 2 (the cut-over must force a redial)", conns)
	}
}

// scriptedClient returns a client whose server answers every request frame
// with reply(request).
func scriptedClient(t *testing.T, reply func(wire.Frame) wire.Frame) *Client {
	t.Helper()
	c := New(Config{
		Dial: func() (net.Conn, error) {
			clientEnd, serverEnd := net.Pipe()
			go func() {
				defer serverEnd.Close()
				var buf []byte
				for {
					f, newBuf, err := wire.Read(serverEnd, buf)
					if err != nil {
						return
					}
					buf = newBuf
					if wire.Write(serverEnd, reply(f)) != nil {
						return
					}
				}
			}()
			return clientEnd, nil
		},
	})
	t.Cleanup(func() { c.Close() })
	return c
}

// TestDequeueBatchRejectsOversizedReply: a VALUES reply longer than the
// request asked for is an error, not a write past the caller's slice.
func TestDequeueBatchRejectsOversizedReply(t *testing.T) {
	c := scriptedClient(t, func(f wire.Frame) wire.Frame {
		return wire.ValuesFrame(f.ID, make([]int64, 8))
	})
	if n, err := c.DequeueBatch(make([]int, 4)); err == nil {
		t.Fatalf("DequeueBatch(4) answered with 8 values = %d, nil; want an error", n)
	}
}

// TestEnqueueBatchRejectsOvercountedAck: an ACK counting more values than
// the batch sent is an error, not more values reported acknowledged than
// were sent.
func TestEnqueueBatchRejectsOvercountedAck(t *testing.T) {
	c := scriptedClient(t, func(f wire.Frame) wire.Frame {
		return wire.AckCountFrame(f.ID, 5)
	})
	if n, err := c.EnqueueBatch([]int{1, 2}); err == nil {
		t.Fatalf("EnqueueBatch of 2 values acknowledged 5 = %d, nil; want an error", n)
	}
}
