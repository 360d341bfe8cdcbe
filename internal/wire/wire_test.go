package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// TestRoundTrip encodes one frame of every kind and decodes it back,
// reusing one read buffer across the stream the way a connection loop
// does.
func TestRoundTrip(t *testing.T) {
	frames := []Frame{
		EnqFrame(1, 42),
		EnqFrame(2, -7), // negative values survive the uint64 transport
		DeqFrame(3),
		EnqBatchFrame(4, []int64{1, 2, 3}),
		EnqBatchFrame(5, nil), // empty batch is legal on the wire
		DeqBatchFrame(6, 128),
		StatsFrame(7),
		PingFrame(8),
		AckFrame(9),
		AckCountFrame(10, 3),
		ValueFrame(11, 1<<40),
		ValuesFrame(12, []int64{-1, 0, 1}),
		EmptyFrame(13),
		RetryFrame(14, RetryFull, 250*time.Microsecond),
		RetryFrame(15, RetryDraining, 0),
		PongFrame(16),
		ErrFrame(17, "connection limit reached"),
		StatsReplyFrame(18, Counters{Enqueued: 10, Dequeued: 4, Empties: 1, Retries: 2, Conns: 3, Draining: true}),
	}

	var stream bytes.Buffer
	for _, f := range frames {
		if err := Write(&stream, f); err != nil {
			t.Fatalf("Write(%v): %v", f.Type, err)
		}
	}

	var buf []byte
	for i, want := range frames {
		got, newBuf, err := Read(&stream, buf)
		if err != nil {
			t.Fatalf("frame %d: Read: %v", i, err)
		}
		buf = newBuf
		if got.Type != want.Type || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %v id=%d payload=%x, want %v id=%d payload=%x",
				i, got.Type, got.ID, got.Payload, want.Type, want.ID, want.Payload)
		}
	}
	if _, _, err := Read(&stream, buf); err != io.EOF {
		t.Fatalf("Read past end = %v, want io.EOF", err)
	}
}

// TestAppendersMatchConstructors pins the typed appenders to the layouts
// the frame constructors define: each encodes the bytes Write does.
func TestAppendersMatchConstructors(t *testing.T) {
	for _, tc := range []struct {
		got  []byte
		want Frame
	}{
		{AppendValueFrame(nil, Enq, 1, -7), EnqFrame(1, -7)},
		{AppendValueFrame([]byte("prefix"), Value, 2, 1<<40), ValueFrame(2, 1<<40)},
		{AppendCountFrame(nil, DeqBatch, 3, 128), DeqBatchFrame(3, 128)},
		{AppendCountFrame(nil, Ack, 4, 3), AckCountFrame(4, 3)},
		{AppendValuesFrame(nil, EnqBatch, 5, []int{1, -2, 3}), EnqBatchFrame(5, []int64{1, -2, 3})},
		{AppendValuesFrame(nil, Values, 6, nil), ValuesFrame(6, nil)},
	} {
		var want bytes.Buffer
		if err := Write(&want, tc.want); err != nil {
			t.Fatal(err)
		}
		if got := bytes.TrimPrefix(tc.got, []byte("prefix")); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%v id=%d: appended %x, Write encodes %x", tc.want.Type, tc.want.ID, got, want.Bytes())
		}
	}
}

func TestPayloadDecoders(t *testing.T) {
	if v, err := DecodeValue(EnqFrame(1, -99).Payload); err != nil || v != -99 {
		t.Fatalf("DecodeValue = %d, %v; want -99, nil", v, err)
	}
	vs, err := DecodeValues(EnqBatchFrame(1, []int64{5, 6}).Payload)
	if err != nil || len(vs) != 2 || vs[0] != 5 || vs[1] != 6 {
		t.Fatalf("DecodeValues = %v, %v", vs, err)
	}
	if n, err := DecodeCount(DeqBatchFrame(1, 64).Payload); err != nil || n != 64 {
		t.Fatalf("DecodeCount = %d, %v", n, err)
	}
	reason, hint, err := DecodeRetry(RetryFrame(1, RetryFull, time.Millisecond).Payload)
	if err != nil || reason != RetryFull || hint != time.Millisecond {
		t.Fatalf("DecodeRetry = %v, %v, %v", reason, hint, err)
	}
	c, err := DecodeCounters(StatsReplyFrame(1, Counters{Enqueued: 7, Dequeued: 3}).Payload)
	if err != nil || c.Enqueued != 7 || c.Dequeued != 3 || c.Backlog() != 4 {
		t.Fatalf("DecodeCounters = %+v, %v", c, err)
	}

	// Malformed payloads must error, not panic or misread.
	if _, err := DecodeValue([]byte{1, 2}); err == nil {
		t.Fatal("DecodeValue(short) accepted")
	}
	if _, err := DecodeValues([]byte{0, 0, 0, 2, 0}); err == nil {
		t.Fatal("DecodeValues(truncated) accepted")
	}
	if _, err := DecodeCount(nil); err == nil {
		t.Fatal("DecodeCount(nil) accepted")
	}
	if _, _, err := DecodeRetry([]byte{1}); err == nil {
		t.Fatal("DecodeRetry(short) accepted")
	}
	if _, err := DecodeCounters([]byte{0, 0, 0, 1, 0}); err == nil {
		t.Fatal("DecodeCounters(too few fields) accepted")
	}
}

// TestReadRejectsOversizedFrame ensures a hostile length prefix cannot
// force an unbounded allocation.
func TestReadRejectsOversizedFrame(t *testing.T) {
	var hdr [headerSize]byte
	hdr[0] = Magic
	binary.BigEndian.PutUint32(hdr[1:], uint32(frameOverhead+MaxPayload+1))
	_, _, err := Read(bytes.NewReader(hdr[:]), nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("Read(oversized) = %v, want length-limit error", err)
	}

	binary.BigEndian.PutUint32(hdr[1:], 3) // below the type+id minimum
	_, _, err = Read(bytes.NewReader(hdr[:]), nil)
	if err == nil || !strings.Contains(err.Error(), "below minimum") {
		t.Fatalf("Read(undersized) = %v, want length-minimum error", err)
	}
}

// TestBadMagicRejected: a stream that does not open with the version
// marker — a v1 peer (whose first byte was always 0x00, the high byte of
// a bounded big-endian length) or raw garbage — fails with ErrBadMagic
// before any body byte is interpreted.
func TestBadMagicRejected(t *testing.T) {
	// A v1-framed ENQ: 4-byte length, then type+id+payload, no checksum.
	v1 := make([]byte, 4+frameOverhead+8)
	binary.BigEndian.PutUint32(v1, uint32(frameOverhead+8))
	v1[4] = byte(Enq)
	_, _, err := Read(bytes.NewReader(v1), nil)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Read(v1 frame) = %v, want ErrBadMagic", err)
	}
	_, _, err = Read(bytes.NewReader([]byte{0x7f, 1, 2, 3}), nil)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Read(garbage) = %v, want ErrBadMagic", err)
	}
}

// TestCorruptionAlwaysDetected flips every byte of an encoded frame, one
// at a time, and asserts the reader never returns a valid frame: every
// corruption lands on ErrChecksum, ErrBadMagic, a length-bound error, or
// a truncation — never a silent misparse. This is the wire-integrity
// property the netchaos corruption fault relies on.
func TestCorruptionAlwaysDetected(t *testing.T) {
	frames := []Frame{
		EnqFrame(7, 42),
		ValuesFrame(8, []int64{1, -2, 3}),
		RetryFrame(9, RetryFull, time.Millisecond),
	}
	for _, f := range frames {
		var stream bytes.Buffer
		if err := Write(&stream, f); err != nil {
			t.Fatal(err)
		}
		full := stream.Bytes()
		for i := range full {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				corrupt := append([]byte(nil), full...)
				corrupt[i] ^= mask
				got, _, err := Read(bytes.NewReader(corrupt), nil)
				if err == nil {
					t.Fatalf("%v frame with byte %d ^= %#02x parsed as %v id=%d — corruption undetected",
						f.Type, i, mask, got.Type, got.ID)
				}
			}
		}
	}
}

// TestChecksumErrorIsSentinel: corruption in the body (not the header)
// surfaces specifically as ErrChecksum, the signal the server counts as
// a detected-corruption event and both sides treat as connection-fatal.
func TestChecksumErrorIsSentinel(t *testing.T) {
	var stream bytes.Buffer
	if err := Write(&stream, EnqFrame(1, 99)); err != nil {
		t.Fatal(err)
	}
	full := stream.Bytes()
	full[headerSize+3] ^= 0x40 // a byte of the id
	_, _, err := Read(bytes.NewReader(full), nil)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("Read(corrupt body) = %v, want ErrChecksum", err)
	}
}

// TestReadTruncation distinguishes a clean close (io.EOF before any
// header byte) from a torn frame (io.ErrUnexpectedEOF).
func TestReadTruncation(t *testing.T) {
	var stream bytes.Buffer
	if err := Write(&stream, EnqFrame(1, 5)); err != nil {
		t.Fatal(err)
	}
	full := stream.Bytes()

	if _, _, err := Read(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("Read(empty) = %v, want io.EOF", err)
	}
	for cut := 1; cut < len(full); cut++ {
		_, _, err := Read(bytes.NewReader(full[:cut]), nil)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("Read(cut at %d/%d) = %v, want io.ErrUnexpectedEOF", cut, len(full), err)
		}
	}
}

// TestWriteIsOneCall verifies a frame reaches the writer in a single
// Write, the property that lets the server's response path rely on the
// net.Conn write atomicity instead of an extra mutex around two calls.
func TestWriteIsOneCall(t *testing.T) {
	w := &countingWriter{}
	if err := Write(w, ValuesFrame(9, []int64{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	if w.calls != 1 {
		t.Fatalf("Write used %d writer calls, want 1", w.calls)
	}
}

type countingWriter struct{ calls int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	return len(p), nil
}

func TestTypeStrings(t *testing.T) {
	for _, typ := range []Type{Enq, Deq, EnqBatch, DeqBatch, Stats, Ping, Ack, Value, Values, Empty, Retry, StatsReply, Pong, Err} {
		if s := typ.String(); strings.HasPrefix(s, "Type(") {
			t.Errorf("Type %d has no mnemonic", typ)
		}
	}
	if s := Type(0xEE).String(); s != "Type(0xee)" {
		t.Errorf("unknown type prints %q", s)
	}
	if !Enq.Request() || Ack.Request() {
		t.Error("Request() misclassifies Enq or Ack")
	}
	for _, r := range []RetryReason{RetryFull, RetryDraining} {
		if s := r.String(); strings.HasPrefix(s, "RetryReason(") {
			t.Errorf("reason %d has no label", r)
		}
	}
}
