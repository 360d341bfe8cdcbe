// Package wire defines the compact length-prefixed binary protocol spoken
// between the queue service (internal/server, cmd/qserve) and its clients
// (internal/client, cmd/qbench -net).
//
// Every frame is
//
//	uint8   magic    version marker (Magic, currently 0xA2 = "v2")
//	uint32  length   big-endian; body bytes that follow (type + id + payload)
//	uint8   type     request or response kind
//	uint64  id       request id, echoed verbatim in the response
//	payload          type-specific, length-9 bytes
//	uint32  crc      CRC32-C (Castagnoli) over magic, length and body
//
// The magic byte makes version mismatches fail *loudly*: a peer speaking a
// different framing never has its bytes misread as a plausible frame — the
// very first byte produces ErrBadMagic and the connection dies. (The v1
// framing began with a big-endian length whose first byte was always 0x00,
// so v1 peers are rejected cleanly too.) The CRC trailer makes silent
// byte corruption — a lying middlebox, a flipped bit — detectable:
// a frame whose trailer does not match yields ErrChecksum instead of a
// misparsed type, id or payload. Both errors are connection-fatal by
// contract; there is no resynchronisation inside a stream (DESIGN §15).
//
// The id exists for pipelining: a client may keep many requests in flight
// on one connection and match responses by id, so one slow round trip does
// not serialise the stream. The server processes one connection's frames in
// order (FIFO per connection — the property the queue itself is about), but
// responses to *different* connections interleave freely.
//
// Values are int64 on the wire. The catalog queues carry int; on 64-bit
// platforms the conversion is exact, which this module already assumes
// elsewhere (the harness payload encoding).
//
// # Backpressure
//
// A server backed by a queue.Bounded replies to an enqueue that finds the
// queue full with a RETRY frame carrying a reason (full vs draining) and a
// backoff hint — the bounded-memory answer to an unbounded network: the
// queue never grows, the *client* waits. See internal/server for the
// semantics and internal/client for the retry loop.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"time"
)

// Type identifies a frame kind. Requests and responses share one space;
// requests are below 0x10, responses at or above.
type Type uint8

const (
	// Enq appends one value. Payload: int64 value.
	Enq Type = 0x01
	// Deq removes one value. No payload.
	Deq Type = 0x02
	// EnqBatch appends up to MaxBatch values in order. Payload: uint32
	// count, count int64 values.
	EnqBatch Type = 0x03
	// DeqBatch removes up to the requested number of values. Payload:
	// uint32 max.
	DeqBatch Type = 0x04
	// Stats requests the server's wire counters. No payload.
	Stats Type = 0x05
	// Ping is a liveness no-op. No payload.
	Ping Type = 0x06

	// Ack acknowledges an Enq (no payload) or an EnqBatch (payload: uint32
	// accepted count — a prefix of the batch; the rest found the queue
	// full). An acknowledged value is owned by the queue: a graceful drain
	// flushes it to consumers, and a client must never resend it.
	Ack Type = 0x11
	// Value answers a Deq that found a value. Payload: int64 value.
	Value Type = 0x12
	// Values answers a DeqBatch. Payload: uint32 count, count int64 values
	// (count may be less than requested; zero is answered by Empty).
	Values Type = 0x13
	// Empty answers a Deq or DeqBatch that observed an empty queue.
	Empty Type = 0x14
	// Retry refuses an Enq or EnqBatch without applying anything. Payload:
	// uint8 reason, uint64 backoff hint in nanoseconds. The hint is the
	// server's suggestion for how long to wait before retrying; clients
	// must jitter it (internal/backoff.Sleeper) so refused producers do
	// not return in lockstep.
	Retry Type = 0x15
	// StatsReply carries a Counters encoding.
	StatsReply Type = 0x16
	// Pong answers Ping.
	Pong Type = 0x17
	// Err reports a terminal per-connection error (malformed frame,
	// connection limit). Payload: UTF-8 message. The server closes the
	// connection after sending it.
	Err Type = 0x18
)

// typeNames holds the frame-type mnemonics used in reports and errors.
var typeNames = [...]string{
	Enq: "ENQ", Deq: "DEQ", EnqBatch: "ENQ_BATCH", DeqBatch: "DEQ_BATCH", Stats: "STATS", Ping: "PING",
	Ack: "ACK", Value: "VALUE", Values: "VALUES", Empty: "EMPTY", Retry: "RETRY",
	StatsReply: "STATS_REPLY", Pong: "PONG", Err: "ERR",
}

// String returns the frame-type mnemonic used in reports and errors.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(0x%02x)", uint8(t))
}

// Request reports whether t is a client-to-server frame kind.
func (t Type) Request() bool { return t >= Enq && t <= Ping }

const (
	// Magic is the version marker opening every frame. The low nibble is
	// the framing version; a reader that sees anything else fails with
	// ErrBadMagic before interpreting a single body byte. v1 frames (no
	// magic, no checksum) started with a 0x00 length byte, so they are
	// rejected here rather than misparsed.
	Magic = 0xA2
	// frameOverhead is the per-frame body cost after the length prefix:
	// one type byte and the eight-byte id.
	frameOverhead = 1 + 8
	// crcSize is the CRC32-C trailer appended after the body.
	crcSize = 4
	// headerSize is everything before the body: magic plus length prefix.
	headerSize = 1 + 4
	// MaxPayload bounds a frame's payload so a corrupt or hostile length
	// prefix cannot make a reader allocate unboundedly — the same
	// bounded-memory stance the RETRY path takes for the queue itself.
	MaxPayload = 1 << 20
	// MaxBatch bounds the element count of one batch frame. 65536 int64
	// values are 512 KiB, comfortably under MaxPayload.
	MaxBatch = 1 << 16
)

// castagnoli is the CRC32-C polynomial table; hardware-accelerated on
// amd64/arm64, so the trailer costs well under the syscall it rides on.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadMagic reports a frame that did not open with Magic: a peer
// speaking a different protocol version (or raw garbage). The stream
// cannot be resynchronised; close the connection.
var ErrBadMagic = errors.New("wire: bad magic byte (mixed protocol versions?)")

// ErrChecksum reports a frame whose CRC32-C trailer did not match its
// bytes: corruption in transit. The frame's type, id and payload are
// untrustworthy and were not returned; close the connection.
var ErrChecksum = errors.New("wire: frame checksum mismatch (corruption)")

// RetryReason says why an enqueue was refused.
type RetryReason uint8

const (
	// RetryFull: the bounded queue had no free slot. Back off and retry.
	RetryFull RetryReason = 1
	// RetryDraining: the server is draining and refuses new work
	// permanently. Retrying against this server is futile.
	RetryDraining RetryReason = 2
)

// String returns the reason label.
func (r RetryReason) String() string {
	switch r {
	case RetryFull:
		return "full"
	case RetryDraining:
		return "draining"
	default:
		return fmt.Sprintf("RetryReason(%d)", uint8(r))
	}
}

// Frame is one decoded protocol frame. Payload aliases the read buffer
// passed to Read; it is valid until the next Read with the same buffer.
type Frame struct {
	Type    Type
	ID      uint64
	Payload []byte
}

// Write encodes f to w as one checksummed length-prefixed frame. It
// performs a single Write call, so frames from goroutines sharing a
// serialised writer are never interleaved mid-frame.
func Write(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("wire: payload %d bytes exceeds MaxPayload %d", len(f.Payload), MaxPayload)
	}
	buf := make([]byte, 0, headerSize+frameOverhead+len(f.Payload)+crcSize)
	_, err := w.Write(AppendFrame(buf, f.Type, f.ID, f.Payload...))
	return err
}

// AppendFrame appends one checksummed frame carrying payload to dst. With
// bufio.Writer.AvailableBuffer() as dst it encodes without allocating.
func AppendFrame(dst []byte, t Type, id uint64, payload ...byte) []byte {
	return sealFrame(append(openFrame(dst, t, id), payload...), len(dst))
}

// AppendValueFrame is AppendFrame for an Enq or Value frame carrying v.
func AppendValueFrame(dst []byte, t Type, id uint64, v int64) []byte {
	return sealFrame(appendValue(openFrame(dst, t, id), v), len(dst))
}

// AppendCountFrame is AppendFrame for a DeqBatch or a batch Ack carrying n.
func AppendCountFrame(dst []byte, t Type, id uint64, n int) []byte {
	return sealFrame(appendCount(openFrame(dst, t, id), n), len(dst))
}

// AppendValuesFrame is AppendFrame for an EnqBatch or Values frame,
// encoding its counted list straight from vs (at most MaxBatch values).
func AppendValuesFrame(dst []byte, t Type, id uint64, vs []int) []byte {
	return sealFrame(appendValues(openFrame(dst, t, id), vs), len(dst))
}

// openFrame appends a frame's header, its length left to sealFrame.
func openFrame(dst []byte, t Type, id uint64) []byte {
	return binary.BigEndian.AppendUint64(append(dst, Magic, 0, 0, 0, 0, byte(t)), id)
}

// sealFrame fills in the length of the frame opened at dst[start] and
// appends its trailer.
func sealFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start+1:], uint32(len(dst)-start-headerSize))
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// Read decodes one frame from r, verifying its CRC32-C trailer. A non-nil
// buf is reused when large enough, so a connection's read loop makes no
// steady-state allocations; the returned Frame's Payload aliases that
// buffer. io.EOF is returned verbatim on a clean boundary
// (no partial frame read), so callers can distinguish an orderly close
// from a truncated stream (io.ErrUnexpectedEOF). A frame that opens with
// the wrong magic byte yields an error wrapping ErrBadMagic; a frame whose
// trailer does not match its bytes yields one wrapping ErrChecksum. Both
// are connection-fatal: nothing after them in the stream can be trusted.
func Read(r io.Reader, buf []byte) (Frame, []byte, error) {
	// The header goes into buf, as a local array would escape through r;
	// a fresh buf fits every fixed-size frame.
	buf = slices.Grow(buf[:0], 64)
	hdr := buf[:headerSize]
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return Frame{}, buf, err // EOF here is a clean close
	}
	if hdr[0] != Magic {
		return Frame{}, buf, fmt.Errorf("%w: got 0x%02x, want 0x%02x", ErrBadMagic, hdr[0], Magic)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the magic byte was read; truncated, not closed
		}
		return Frame{}, buf, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n < frameOverhead {
		return Frame{}, buf, fmt.Errorf("wire: frame length %d below minimum %d", n, frameOverhead)
	}
	if n > frameOverhead+MaxPayload {
		return Frame{}, buf, fmt.Errorf("wire: frame length %d exceeds limit %d", n, frameOverhead+MaxPayload)
	}
	crc := crc32.Checksum(hdr, castagnoli)
	// The bound check above caps this allocation at MaxPayload plus a few
	// bytes of framing, before a single body byte is read.
	if cap(buf) < int(n)+crcSize {
		buf = make([]byte, int(n)+crcSize)
	}
	buf = buf[:int(n)+crcSize]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // header was read; the stream is truncated, not closed
		}
		return Frame{}, buf, err
	}
	crc = crc32.Update(crc, castagnoli, buf[:n])
	if want := binary.BigEndian.Uint32(buf[n:]); crc != want {
		return Frame{}, buf, fmt.Errorf("%w: computed 0x%08x, trailer 0x%08x", ErrChecksum, crc, want)
	}
	return Frame{
		Type:    Type(buf[0]),
		ID:      binary.BigEndian.Uint64(buf[1:9]),
		Payload: buf[9:n],
	}, buf, nil
}

// FrameBuffered reports whether br already holds a whole frame, so the next
// Read from br cannot block. A serving loop flushes its responses when it
// returns false: a bare br.Buffered() == 0 would hold them back behind a
// frame whose first bytes have arrived and whose rest has not.
func FrameBuffered(br *bufio.Reader) bool {
	hdr, _ := br.Peek(min(br.Buffered(), headerSize)) // never waits for unbuffered bytes
	return len(hdr) == headerSize && br.Buffered() >= headerSize+int(binary.BigEndian.Uint32(hdr[1:]))+crcSize
}

// --- payload encodings ---

// DecodeValue reads the int64 payload of an Enq or Value frame.
func DecodeValue(p []byte) (int64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("wire: value payload is %d bytes, want 8", len(p))
	}
	return int64(binary.BigEndian.Uint64(p)), nil
}

// DecodeValues reads the counted int64 list of an EnqBatch or Values
// frame.
func DecodeValues(p []byte) ([]int64, error) { return decodeValues[int64](nil, p) }

// DecodeInts appends the counted list of an EnqBatch or Values payload to
// dst, allocating only when dst lacks room.
func DecodeInts(dst []int, p []byte) ([]int, error) { return decodeValues(dst, p) }

// decodeValues appends a counted int64 list to dst. The count is validated
// against both MaxBatch and the bytes actually present *before* dst grows,
// so a corrupt or hostile count can neither over-allocate nor read past
// the payload.
func decodeValues[T int | int64](dst []T, p []byte) ([]T, error) {
	if len(p) < 4 {
		return dst, fmt.Errorf("wire: batch payload is %d bytes, want >= 4", len(p))
	}
	n := binary.BigEndian.Uint32(p)
	if n > MaxBatch {
		return dst, fmt.Errorf("wire: batch count %d exceeds MaxBatch %d", n, MaxBatch)
	}
	if uint64(len(p)-4) != 8*uint64(n) {
		return dst, fmt.Errorf("wire: batch payload is %d bytes, want %d for %d values", len(p), 4+8*int64(n), n)
	}
	dst = slices.Grow(dst, int(n))
	for i := range int(n) {
		dst = append(dst, T(binary.BigEndian.Uint64(p[4+8*i:])))
	}
	return dst, nil
}

// DecodeCount reads the uint32 payload of a DeqBatch request or a batch
// Ack.
func DecodeCount(p []byte) (int, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("wire: count payload is %d bytes, want 4", len(p))
	}
	return int(binary.BigEndian.Uint32(p)), nil
}

// DecodeRetry reads a Retry payload.
func DecodeRetry(p []byte) (RetryReason, time.Duration, error) {
	if len(p) != 9 {
		return 0, 0, fmt.Errorf("wire: retry payload is %d bytes, want 9", len(p))
	}
	return RetryReason(p[0]), time.Duration(binary.BigEndian.Uint64(p[1:])), nil
}

// --- frame constructors ---

// EnqFrame builds an Enq request.
func EnqFrame(id uint64, v int64) Frame {
	return Frame{Type: Enq, ID: id, Payload: appendValue(nil, v)}
}

// DeqFrame builds a Deq request.
func DeqFrame(id uint64) Frame { return Frame{Type: Deq, ID: id} }

// EnqBatchFrame builds an EnqBatch request; len(vs) must not exceed
// MaxBatch.
func EnqBatchFrame(id uint64, vs []int64) Frame {
	return Frame{Type: EnqBatch, ID: id, Payload: appendValues(nil, vs)}
}

// DeqBatchFrame builds a DeqBatch request for up to max values.
func DeqBatchFrame(id uint64, max int) Frame {
	return Frame{Type: DeqBatch, ID: id, Payload: appendCount(nil, max)}
}

// StatsFrame builds a Stats request.
func StatsFrame(id uint64) Frame { return Frame{Type: Stats, ID: id} }

// PingFrame builds a Ping request.
func PingFrame(id uint64) Frame { return Frame{Type: Ping, ID: id} }

// AckFrame acknowledges a single Enq.
func AckFrame(id uint64) Frame { return Frame{Type: Ack, ID: id} }

// AckCountFrame acknowledges an EnqBatch prefix of n values.
func AckCountFrame(id uint64, n int) Frame {
	return Frame{Type: Ack, ID: id, Payload: appendCount(nil, n)}
}

// ValueFrame answers a Deq with v.
func ValueFrame(id uint64, v int64) Frame {
	return Frame{Type: Value, ID: id, Payload: appendValue(nil, v)}
}

// ValuesFrame answers a DeqBatch with vs.
func ValuesFrame(id uint64, vs []int64) Frame {
	return Frame{Type: Values, ID: id, Payload: appendValues(nil, vs)}
}

// EmptyFrame answers a Deq or DeqBatch that found nothing.
func EmptyFrame(id uint64) Frame { return Frame{Type: Empty, ID: id} }

// RetryFrame refuses an enqueue with a reason and a backoff hint.
func RetryFrame(id uint64, reason RetryReason, hint time.Duration) Frame {
	return Frame{Type: Retry, ID: id, Payload: binary.BigEndian.AppendUint64(append(make([]byte, 0, 9), byte(reason)), uint64(hint))}
}

// PongFrame answers a Ping.
func PongFrame(id uint64) Frame { return Frame{Type: Pong, ID: id} }

// ErrFrame reports msg; the sender closes the connection afterwards.
func ErrFrame(id uint64, msg string) Frame {
	if len(msg) > MaxPayload {
		msg = msg[:MaxPayload]
	}
	return Frame{Type: Err, ID: id, Payload: []byte(msg)}
}

// StatsReplyFrame answers a Stats request with c.
func StatsReplyFrame(id uint64, c Counters) Frame {
	return Frame{Type: StatsReply, ID: id, Payload: c.append(nil)}
}

// The one encoding of each payload, for the constructors and the appenders.
func appendValues[T int | int64](p []byte, vs []T) []byte {
	p = appendCount(p, len(vs))
	for _, v := range vs {
		p = appendValue(p, int64(v))
	}
	return p
}

func appendValue(p []byte, v int64) []byte { return binary.BigEndian.AppendUint64(p, uint64(v)) }

func appendCount(p []byte, n int) []byte { return binary.BigEndian.AppendUint32(p, uint32(n)) }

// Counters is the server-side tally carried by a StatsReply: how the wire
// paths have been exercised since the server started. All element counts
// are cumulative.
type Counters struct {
	// Enqueued counts acknowledged elements (Enq frames plus accepted
	// EnqBatch elements).
	Enqueued uint64
	// Dequeued counts delivered elements (Value frames plus Values
	// elements).
	Dequeued uint64
	// Empties counts Empty responses.
	Empties uint64
	// Retries counts Retry responses.
	Retries uint64
	// Conns is the number of currently open connections.
	Conns uint64
	// Draining reports whether the server has begun its graceful drain.
	Draining bool
}

// Backlog returns the number of acknowledged-but-undelivered elements —
// what a graceful drain must flush before the server may exit.
func (c Counters) Backlog() uint64 {
	if c.Dequeued > c.Enqueued {
		return 0 // torn read while ops are in flight; quiescent reads are exact
	}
	return c.Enqueued - c.Dequeued
}

// counterFields is the number of uint64 fields in the Counters encoding.
// Decoding tolerates replies with more fields (a newer server), reading
// the prefix it knows.
const counterFields = 6

func (c Counters) append(p []byte) []byte {
	p = appendCount(p, counterFields)
	draining := uint64(0)
	if c.Draining {
		draining = 1
	}
	for _, f := range [counterFields]uint64{c.Enqueued, c.Dequeued, c.Empties, c.Retries, c.Conns, draining} {
		p = binary.BigEndian.AppendUint64(p, f)
	}
	return p
}

// DecodeCounters reads a StatsReply payload. The declared field count is
// checked against the bytes present before any field is read, so a
// corrupt count cannot walk past the payload.
func DecodeCounters(p []byte) (Counters, error) {
	if len(p) < 4 {
		return Counters{}, fmt.Errorf("wire: counters payload is %d bytes, want >= 4", len(p))
	}
	n := binary.BigEndian.Uint32(p)
	if n < counterFields {
		return Counters{}, fmt.Errorf("wire: counters reply has %d fields, want >= %d", n, counterFields)
	}
	if uint64(len(p)-4) < 8*uint64(n) {
		return Counters{}, fmt.Errorf("wire: counters payload is %d bytes, want %d for %d fields", len(p), 4+8*int64(n), n)
	}
	field := func(i int) uint64 { return binary.BigEndian.Uint64(p[4+8*i:]) }
	return Counters{
		Enqueued: field(0),
		Dequeued: field(1),
		Empties:  field(2),
		Retries:  field(3),
		Conns:    field(4),
		Draining: field(5) != 0,
	}, nil
}
