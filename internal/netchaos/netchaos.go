// Package netchaos is a seeded, deterministic in-process network
// fault-injection proxy: the network-layer sibling of internal/chaos.
//
// The paper's adversary is the scheduler — a process "halted or delayed
// at an inopportune moment" — and internal/chaos verifies the catalog
// against exactly that. Once the queues are served over TCP
// (internal/server, internal/client), the adversary is the *network*:
// connections reset mid-frame, frames arrive torn across segment
// boundaries, bytes flip silently in flight, peers black-hole without
// closing. This package injects that fault matrix between a real client
// and a real server, in process, so the hardened paths (wire checksums,
// dial/op/write deadlines, redial-and-resend) can be driven against every
// fault class and checked for conservation: no acknowledged enqueue lost,
// duplicates bounded by the documented at-least-once resend window, no
// goroutine wedged forever.
//
// # Fault matrix
//
//   - Reset: the connection is closed before the bytes move — the
//     immediate RST. Both sides see a connection error; the client's
//     redial-and-resend path owns recovery.
//   - MidFrameReset: a prefix of the buffer is written, then the
//     connection is closed — a frame torn by death. The reader sees
//     io.ErrUnexpectedEOF, never a misparse.
//   - TornWrite: the buffer is split at a fault-chosen byte and written
//     in two bursts with a pause between — the kernel-segmentation
//     adversary. No error anywhere; readers must reassemble.
//   - Corrupt: one fault-chosen byte is flipped and the write reports
//     success — the lying middlebox. Detection is entirely the wire
//     checksum's job (wire.ErrChecksum), and the connection dies for it.
//   - Latency: the operation is delayed by a bounded, fault-chosen
//     jitter. Nothing breaks; tail latency grows.
//   - Blackhole: the connection goes permanently silent — operations
//     block until a deadline or a close releases them, and every later
//     operation on the connection does the same. Only the deadlines the
//     stack carries (client DialTimeout/OpTimeout, server IdleTimeout/
//     WriteTimeout) can rescue a peer from this one.
//
// # Determinism
//
// Every decision — whether an operation draws a fault, which class,
// where a write is torn, which byte corrupts, how long a delay lasts —
// comes from one inject.Stream (splitmix64) seeded by Config.Seed, the
// stream inject.Delay draws from too: the decision
// *sequence* is a pure function of the seed, and the concurrent
// interleaving only assigns decisions to operations. A failing sweep
// prints its seed; rerunning with it replays the same fault stream.
package netchaos

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"msqueue/internal/inject"
	"msqueue/internal/metrics"
)

// Fault is one fault class from the matrix.
type Fault uint8

const (
	// None: the operation proceeds untouched.
	None Fault = iota
	// Reset closes the connection before the operation.
	Reset
	// MidFrameReset writes a prefix of the buffer, then closes.
	MidFrameReset
	// TornWrite splits one write into two bursts with a pause between.
	TornWrite
	// Corrupt flips one byte of the written buffer, reporting success.
	Corrupt
	// Latency delays the operation by a bounded jitter.
	Latency
	// Blackhole makes the connection permanently silent; operations block
	// until a deadline or close.
	Blackhole

	// NumFaults is the number of fault classes, including None.
	NumFaults = int(Blackhole) + 1
)

// String returns the fault-class label used in reports.
func (f Fault) String() string {
	switch f {
	case None:
		return "none"
	case Reset:
		return "reset"
	case MidFrameReset:
		return "midframe-reset"
	case TornWrite:
		return "torn-write"
	case Corrupt:
		return "corrupt"
	case Latency:
		return "latency"
	case Blackhole:
		return "blackhole"
	default:
		return fmt.Sprintf("Fault(%d)", uint8(f))
	}
}

// Config tunes an Injector. Rates are per-operation probabilities in
// [0,1] — one draw per Conn.Read and per Conn.Write — evaluated as a
// cumulative distribution in matrix order, so the sum of all rates
// should stay at or below 1.
type Config struct {
	// Seed drives the splitmix64 decision stream. The zero seed is
	// replaced by 1 so a forgotten seed still injects deterministically.
	Seed int64
	// Rates holds the per-class injection probability, indexed by Fault.
	// The None entry is ignored (it is the remaining mass).
	Rates [NumFaults]float64
	// MaxLatency bounds the Latency fault's injected delay and the pause
	// inside a TornWrite (default 2ms).
	MaxLatency time.Duration
	// Probe, when non-nil, counts every injected fault at
	// metrics.NetFault.
	Probe *metrics.Probe
	// Logf, when non-nil, receives one line per injected fault.
	Logf func(format string, args ...any)
}

// Rate returns a Config injecting only fault f at the given rate.
func Rate(f Fault, rate float64) Config {
	var cfg Config
	cfg.Rates[f] = rate
	return cfg
}

const defaultMaxLatency = 2 * time.Millisecond

// Injector is the seeded fault source shared by every connection of one
// proxy: wrap a listener (server side), a dial function (client side),
// or both with the same Injector so one seed drives the whole run. Safe
// for concurrent use.
type Injector struct {
	cfg       Config
	stream    inject.Stream
	enabled   atomic.Bool
	counts    [NumFaults]atomic.Int64
	threshold [NumFaults]uint64 // cumulative rate thresholds on the uint64 draw
}

// New returns an Injector for cfg, enabled and at the start of its
// decision stream.
func New(cfg Config) *Injector {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxLatency <= 0 {
		cfg.MaxLatency = defaultMaxLatency
	}
	in := &Injector{cfg: cfg}
	in.stream.Store(uint64(cfg.Seed))
	// Thresholds live on a 32-bit lattice compared against the draw's top
	// 32 bits: acc == 1 maps to exactly 1<<32 (always hit), avoiding the
	// undefined float→uint64 conversion at the top of the 64-bit range.
	acc := 0.0
	for f := 1; f < NumFaults; f++ {
		r := cfg.Rates[f]
		if r < 0 {
			r = 0
		}
		acc += r
		if acc > 1 {
			acc = 1
		}
		in.threshold[f] = uint64(acc * float64(uint64(1)<<32))
	}
	in.enabled.Store(true)
	return in
}

// Seed returns the seed the decision stream was started from — print it
// so a failure replays.
func (in *Injector) Seed() int64 { return in.cfg.Seed }

// Disable stops all injection: subsequent operations pass through
// untouched (already-blackholed connections stay silent — a dead peer
// does not come back). Used to quiesce the fault phase before a drain.
func (in *Injector) Disable() { in.enabled.Store(false) }

// Count reports how many times fault f has been injected.
func (in *Injector) Count(f Fault) int64 { return in.counts[f].Load() }

// Total reports the total number of injected faults across all classes.
func (in *Injector) Total() int64 {
	var t int64
	for f := 1; f < NumFaults; f++ {
		t += in.counts[f].Load()
	}
	return t
}

// draw decides the fault for one operation and tallies it.
func (in *Injector) draw() Fault {
	if !in.enabled.Load() {
		return None
	}
	x := in.stream.Next() >> 32
	for f := 1; f < NumFaults; f++ {
		if in.cfg.Rates[f] > 0 && x < in.threshold[f] {
			in.counts[f].Add(1)
			in.cfg.Probe.Add(metrics.NetFault, 1)
			return Fault(f)
		}
	}
	return None
}

// jitter returns a fault-chosen duration in (0, max].
func (in *Injector) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(in.stream.Next()%uint64(max)) + 1
}

func (in *Injector) logf(format string, args ...any) {
	if in.cfg.Logf != nil {
		in.cfg.Logf(format, args...)
	}
}

// WrapConn returns c with the injector's fault matrix applied to its
// Read and Write paths.
func (in *Injector) WrapConn(c net.Conn) net.Conn {
	return &conn{Conn: c, in: in, done: make(chan struct{})}
}

// WrapListener returns l with every accepted connection wrapped — the
// server-side attachment point.
func (in *Injector) WrapListener(l net.Listener) net.Listener {
	return &listener{Listener: l, in: in}
}

// Dialer returns a dial function whose connections are wrapped — the
// client-side attachment point (plug into client.Config.Dial).
func (in *Injector) Dialer(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return in.WrapConn(c), nil
	}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.WrapConn(c), nil
}

// errInjectedReset is what a victim of a Reset or MidFrameReset sees:
// indistinguishable in kind from a real peer reset, which is the point.
type resetError struct{}

func (resetError) Error() string   { return "netchaos: injected connection reset" }
func (resetError) Timeout() bool   { return false }
func (resetError) Temporary() bool { return false }

// timeoutError is returned when a blackholed operation's deadline fires;
// it satisfies net.Error's Timeout so callers classify it exactly like a
// real deadline expiry.
type timeoutError struct{}

func (timeoutError) Error() string   { return "netchaos: i/o timeout (blackholed)" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// conn applies the fault matrix to one connection. Deadlines are
// tracked locally (as well as forwarded) so a blackholed operation still
// honors them: the underlying conn never sees the operation at all.
type conn struct {
	net.Conn
	in *Injector

	blackholed atomic.Bool

	mu            sync.Mutex
	readDeadline  time.Time
	writeDeadline time.Time

	closeOnce sync.Once
	done      chan struct{}
}

func (c *conn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return c.Conn.Close()
}

func (c *conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// stall blocks a blackholed operation until its deadline (sampled at
// entry) or the connection's close, and returns the error the caller
// must surface. It never returns nil.
func (c *conn) stall(deadline time.Time) error {
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-c.done:
		return resetError{}
	case <-timeout:
		return timeoutError{}
	}
}

func (c *conn) deadline(read bool) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if read {
		return c.readDeadline
	}
	return c.writeDeadline
}

func (c *conn) Read(b []byte) (int, error) {
	if c.blackholed.Load() {
		return 0, c.stall(c.deadline(true))
	}
	switch c.in.draw() {
	case Reset, MidFrameReset:
		// On the read path both reset flavors collapse to the same
		// observable: the connection dies under the reader.
		c.in.logf("netchaos: reset on read (%v)", c.RemoteAddr())
		c.Close()
		return 0, resetError{}
	case Latency:
		time.Sleep(c.in.jitter(c.in.cfg.MaxLatency))
	case Blackhole:
		c.in.logf("netchaos: blackhole on read (%v)", c.RemoteAddr())
		c.blackholed.Store(true)
		return 0, c.stall(c.deadline(true))
	}
	return c.Conn.Read(b)
}

func (c *conn) Write(b []byte) (int, error) {
	if c.blackholed.Load() {
		return 0, c.stall(c.deadline(false))
	}
	switch c.in.draw() {
	case Reset:
		c.in.logf("netchaos: reset on write (%v)", c.RemoteAddr())
		c.Close()
		return 0, resetError{}

	case MidFrameReset:
		// Deliver a strict prefix, then kill the connection: the frame is
		// torn at a fault-chosen byte and the remainder never arrives.
		k := 0
		if len(b) > 1 {
			k = 1 + int(c.in.stream.Next()%uint64(len(b)-1))
		}
		c.in.logf("netchaos: mid-frame reset after %d/%d bytes (%v)", k, len(b), c.RemoteAddr())
		n, _ := c.Conn.Write(b[:k])
		c.Close()
		return n, resetError{}

	case TornWrite:
		// Split the buffer and pause between the halves, long enough for
		// the far reader to wake up on the partial frame.
		if len(b) > 1 {
			k := 1 + int(c.in.stream.Next()%uint64(len(b)-1))
			n1, err := c.Conn.Write(b[:k])
			if err != nil {
				return n1, err
			}
			time.Sleep(c.in.jitter(c.in.cfg.MaxLatency))
			n2, err := c.Conn.Write(b[k:])
			return n1 + n2, err
		}

	case Corrupt:
		// Flip one fault-chosen byte and report success: the receiver's
		// checksum, not this layer, must notice.
		cp := make([]byte, len(b))
		copy(cp, b)
		if len(cp) > 0 {
			i := int(c.in.stream.Next() % uint64(len(cp)))
			mask := byte(c.in.stream.Next())
			if mask == 0 {
				mask = 0x80
			}
			cp[i] ^= mask
			c.in.logf("netchaos: corrupted byte %d of %d (%v)", i, len(cp), c.RemoteAddr())
		}
		n, err := c.Conn.Write(cp)
		return n, err

	case Latency:
		time.Sleep(c.in.jitter(c.in.cfg.MaxLatency))

	case Blackhole:
		c.in.logf("netchaos: blackhole on write (%v)", c.RemoteAddr())
		c.blackholed.Store(true)
		return 0, c.stall(c.deadline(false))
	}
	return c.Conn.Write(b)
}
