package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"msqueue/internal/wire"
)

// The wire framing as it appears in the byte stream (see internal/wire):
// magic (1), length (4), then length bytes of body — type (1), id (8),
// payload — then a 4-byte CRC-32C trailer.
const (
	frameHead  = 1 + 4
	frameIDEnd = frameHead + 1 + 8
	frameTrail = 4
)

// frameScanner finds frame boundaries and request ids in one direction of
// a connection's byte stream, however the bytes are split across I/O
// calls.
type frameScanner struct {
	head [frameIDEnd]byte
	have int // bytes of the current frame consumed so far
	size int // the current frame's total size, once its header is in
}

// feed consumes p and calls done with the id of every frame whose last
// byte is in p, in stream order.
func (s *frameScanner) feed(p []byte, done func(id uint64)) {
	for len(p) > 0 {
		if s.have < frameIDEnd {
			n := copy(s.head[s.have:], p)
			s.have += n
			p = p[n:]
			if s.have < frameIDEnd {
				return
			}
			s.size = frameHead + int(binary.BigEndian.Uint32(s.head[1:frameHead])) + frameTrail
		}
		n := min(len(p), s.size-s.have)
		s.have += n
		p = p[n:]
		if s.have == s.size {
			done(binary.BigEndian.Uint64(s.head[frameHead+1:]))
			s.have = 0
		}
	}
}

// frameEvent is the I/O call that completed one frame: its id and the
// call's start and end.
type frameEvent struct {
	id         uint64
	start, end time.Time
}

// tracedConn timestamps every Read and Write on a connection and
// attributes each frame to the call that carried its last byte.
type tracedConn struct {
	net.Conn

	mu            sync.Mutex
	rd, wr        frameScanner
	reads, writes int // calls that moved bytes
	readDone      []frameEvent
	writeDone     []frameEvent
}

// Read records only when each call ended: no stage starts at a read.
func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		end := time.Now()
		c.record(&c.rd, &c.reads, &c.readDone, p[:n], end, end)
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.record(&c.wr, &c.writes, &c.writeDone, p[:n], start, time.Now())
	}
	return n, err
}

func (c *tracedConn) record(s *frameScanner, calls *int, done *[]frameEvent, p []byte, start, end time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	*calls++
	s.feed(p, func(id uint64) { *done = append(*done, frameEvent{id, start, end}) })
}

// tracer records one traced trial: the server's accepted connections, the
// client's dialed ones, and, on a single-caller workload, every call.
type tracer struct {
	mu      sync.Mutex
	servers []*tracedConn
	clients []*tracedConn
	calls   []frameEvent // id unused; written by the one caller goroutine
}

type tracedListener struct {
	net.Listener
	t *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: c}
	l.t.mu.Lock()
	l.t.servers = append(l.t.servers, tc)
	l.t.mu.Unlock()
	return tc, nil
}

func (t *tracer) hooks(callers int) hooks {
	h := hooks{
		listener: func(l net.Listener) net.Listener { return tracedListener{l, t} },
		dial: func(addr string) func() (net.Conn, error) {
			return func() (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				tc := &tracedConn{Conn: c}
				t.mu.Lock()
				t.clients = append(t.clients, tc)
				t.mu.Unlock()
				return tc, nil
			}
		},
	}
	if callers == 1 {
		h.onCall = func(start, end time.Time) { t.calls = append(t.calls, frameEvent{start: start, end: end}) }
	}
	return h
}

// Request stages, in order. Each runs from the end of the one before it,
// so for every request the seven sum to its call's latency.
var (
	callStages = []string{"client_send", "client_write", "c2s_wait", "server_dispatch", "server_write", "s2c_wait", "client_wake"}
	wireStages = callStages[1:6]
)

// join matches each request the client wrote inside the window with the
// server's read of it, the server's write of its response and the client's
// read of that, all by request id. It returns every stage's duration per
// request in microseconds, index-aligned across stages, plus the I/O
// counts per frame. With calls recorded, the i-th call is the request
// frame after the first PING, and "call" holds each call's latency.
func (t *tracer) join(window [2]time.Time) (map[string][]float64, map[string]float64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.clients) != 1 || len(t.servers) != 1 {
		return nil, nil, fmt.Errorf("trace: %d client and %d server connections, want one each", len(t.clients), len(t.servers))
	}
	c, s := t.clients[0], t.servers[0]
	c.mu.Lock()
	defer c.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(t.calls) > 0 && len(c.writeDone) < len(t.calls)+1 {
		return nil, nil, fmt.Errorf("trace: %d request frames for %d calls", len(c.writeDone), len(t.calls))
	}

	srvRead := make(map[uint64]frameEvent, len(s.readDone))
	for _, e := range s.readDone {
		srvRead[e.id] = e
	}
	srvWrite := make(map[uint64]frameEvent, len(s.writeDone))
	for _, e := range s.writeDone {
		srvWrite[e.id] = e
	}
	cliRead := make(map[uint64]frameEvent, len(c.readDone))
	for _, e := range c.readDone {
		cliRead[e.id] = e
	}
	us := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e3 }
	stages := map[string][]float64{}
	add := func(stage string, a, b time.Time) { stages[stage] = append(stages[stage], us(a, b)) }
	for i, w := range c.writeDone {
		if w.start.Before(window[0]) || !w.start.Before(window[1]) {
			continue
		}
		sr, ok1 := srvRead[w.id]
		sw, ok2 := srvWrite[w.id]
		cr, ok3 := cliRead[w.id]
		if !ok1 || !ok2 || !ok3 {
			return nil, nil, fmt.Errorf("trace: request %d has no complete round trip", w.id)
		}
		var call frameEvent
		if len(t.calls) > 0 {
			if i == 0 || i > len(t.calls) {
				continue
			}
			call = t.calls[i-1]
			if w.start.Before(call.start) || call.end.Before(cr.end) {
				return nil, nil, fmt.Errorf("trace: request %d falls outside call %d", w.id, i-1)
			}
			add("client_send", call.start, w.start)
			add("client_wake", cr.end, call.end)
			add("call", call.start, call.end)
		}
		add("client_write", w.start, w.end)
		add("c2s_wait", w.end, sr.end)
		add("server_dispatch", sr.end, sw.start)
		add("server_write", sw.start, sw.end)
		add("s2c_wait", sw.end, cr.end)
	}
	if len(stages["client_write"]) == 0 {
		return nil, nil, fmt.Errorf("trace: no request started inside the window")
	}
	counts := map[string]float64{
		"client_reads_per_frame":  float64(c.reads) / float64(len(c.readDone)),
		"server_reads_per_frame":  float64(s.reads) / float64(len(s.readDone)),
		"client_writes_per_frame": float64(c.writes) / float64(len(c.writeDone)),
		"server_frames_per_write": float64(len(s.writeDone)) / float64(s.writes),
	}
	return stages, counts, nil
}

// rawLoop is a round trip without the client package: this benchmark's
// own ENQ/DEQ frames, pre-encoded, over a bufio-wrapped loopback
// connection to the same server, one request in flight. It returns each
// round trip in microseconds.
func rawLoop(addr string, d time.Duration) ([]float64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("raw loop: %w", err)
	}
	defer conn.Close()
	var enq, deq bytes.Buffer
	const v = 7
	if err := wire.Write(&enq, wire.EnqFrame(1, v)); err != nil {
		return nil, err
	}
	if err := wire.Write(&deq, wire.DeqFrame(2)); err != nil {
		return nil, err
	}
	bw, br := bufio.NewWriter(conn), bufio.NewReader(conn)
	var buf []byte
	var rtts []float64
	roundTrip := func(req []byte, want wire.Type) error {
		start := time.Now()
		bw.Write(req)
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("raw loop: %w", err)
		}
		f, b, err := wire.Read(br, buf)
		buf = b
		if err != nil {
			return fmt.Errorf("raw loop: %w", err)
		}
		rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1e3)
		if f.Type != want {
			return fmt.Errorf("raw loop: got %v, want %v", f.Type, want)
		}
		if want == wire.Value {
			if got, err := wire.DecodeValue(f.Payload); err != nil || got != v {
				return fmt.Errorf("raw loop: dequeued %d (%v), want %d", got, err, v)
			}
		}
		return nil
	}
	for end := time.Now().Add(d); time.Now().Before(end); {
		if err := roundTrip(enq.Bytes(), wire.Ack); err != nil {
			return rtts, err
		}
		if err := roundTrip(deq.Bytes(), wire.Value); err != nil {
			return rtts, err
		}
	}
	return rtts, nil
}

// closure is the median request's waterfall: over the requests whose call
// latency lies between the 45th and 55th percentile, the sum of each
// stage's median divided by their median call latency. Near 1, the stage
// medians describe a typical call; summed over all requests instead, the
// medians of right-skewed stages would fall short of the median call by
// construction.
func closure(stages map[string][]float64) float64 {
	calls := stages["call"]
	idx := make([]int, len(calls))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return calls[idx[a]] < calls[idx[b]] })
	band := idx[len(idx)*45/100 : len(idx)*55/100+1]
	pick := func(vals []float64) float64 {
		out := make([]float64, len(band))
		for i, j := range band {
			out[i] = vals[j]
		}
		return medianOf(out)
	}
	var sum float64
	for _, st := range callStages {
		sum += pick(stages[st])
	}
	return sum / pick(calls)
}
