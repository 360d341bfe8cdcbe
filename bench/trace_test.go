package main

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"msqueue/internal/wire"
)

// stream encodes frames of several sizes back to back and returns the
// bytes and the ids in order.
func stream(t *testing.T) ([]byte, []uint64) {
	t.Helper()
	vals := make([]int64, 64)
	frames := []wire.Frame{
		wire.EnqFrame(1, 7),
		wire.DeqFrame(2),
		wire.EnqBatchFrame(3, vals),
		wire.AckFrame(1 << 40),
		wire.ValueFrame(5, -1),
		wire.ValuesFrame(6, vals[:3]),
		wire.EmptyFrame(7),
	}
	var b bytes.Buffer
	var ids []uint64
	for _, f := range frames {
		if err := wire.Write(&b, f); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID)
	}
	return b.Bytes(), ids
}

func scan(parts [][]byte) []uint64 {
	var s frameScanner
	var got []uint64
	for _, p := range parts {
		s.feed(p, func(id uint64) { got = append(got, id) })
	}
	return got
}

func TestFrameScannerWholeStream(t *testing.T) {
	b, ids := stream(t)
	if got := scan([][]byte{b}); !reflect.DeepEqual(got, ids) {
		t.Errorf("several frames in one write: got ids %v, want %v", got, ids)
	}
}

func TestFrameScannerSplitReads(t *testing.T) {
	b, ids := stream(t)
	// One byte per read: every header, id and payload is split.
	var bytewise [][]byte
	for i := range b {
		bytewise = append(bytewise, b[i:i+1])
	}
	if got := scan(bytewise); !reflect.DeepEqual(got, ids) {
		t.Errorf("byte-at-a-time: got ids %v, want %v", got, ids)
	}
	// Every two-way and three-way split.
	for i := 0; i <= len(b); i++ {
		if got := scan([][]byte{b[:i], b[i:]}); !reflect.DeepEqual(got, ids) {
			t.Fatalf("split at %d: got ids %v, want %v", i, got, ids)
		}
		for j := i; j <= len(b); j += 7 {
			if got := scan([][]byte{b[:i], b[i:j], b[j:]}); !reflect.DeepEqual(got, ids) {
				t.Fatalf("split at %d and %d: got ids %v, want %v", i, j, got, ids)
			}
		}
	}
}

// TestTracedConnAttributesFrames checks that a traced connection
// attributes each frame to the I/O call that carried its last byte, and
// counts the calls.
func TestTracedConnAttributesFrames(t *testing.T) {
	b, ids := stream(t)
	a, z := net.Pipe()
	defer a.Close()
	tc := &tracedConn{Conn: a}
	go func() {
		z.Write(b[:20]) // first frame (18 bytes) and part of the second
		z.Write(b[20:])
		z.Close()
	}()
	buf := make([]byte, 1<<12)
	for {
		if _, err := tc.Read(buf); err != nil {
			break
		}
	}
	var got []uint64
	for _, e := range tc.readDone {
		got = append(got, e.id)
	}
	if !reflect.DeepEqual(got, ids) {
		t.Errorf("read ids %v, want %v", got, ids)
	}
	if tc.reads != 2 {
		t.Errorf("counted %d reads, want 2", tc.reads)
	}
	if first, second := tc.readDone[0], tc.readDone[1]; second.end.Before(first.end) || first.end.Equal(time.Time{}) {
		t.Errorf("frame times out of order: %v then %v", first.end, second.end)
	}
}

// TestClosure checks the median-request waterfall on synthetic requests
// whose stages sum to their call latency: one fixed stage plus one
// right-skewed stage.
func TestClosure(t *testing.T) {
	stages := map[string][]float64{}
	for i := 0; i < 101; i++ {
		skewed := float64(i*i) / 100
		for _, st := range callStages {
			v := 0.0
			switch st {
			case "client_write":
				v = 5
			case "s2c_wait":
				v = skewed
			}
			stages[st] = append(stages[st], v)
		}
		stages["call"] = append(stages["call"], 5+skewed)
	}
	if got := closure(stages); got < 0.99 || got > 1.01 {
		t.Errorf("closure = %v, want 1 within 1%%", got)
	}
}
