package server

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"msqueue/internal/core"
	"msqueue/internal/wire"
)

// FuzzServeConn runs the serving loop to completion over a fake
// connection. The input's first byte picks after how many written bytes
// the connection's Write starts failing (0 = never); the rest is the
// request stream. Whatever the bytes, ServeConn must not panic, the
// values left in the queue must equal the acknowledged backlog (acked
// means delivered, through the requeue of unflushed responses too), no
// value may settle unless its response was written in full, and the
// responses written must parse and echo the request ids in order, up to
// an ERR. CI runs this target in the fuzz-smoke job.
func FuzzServeConn(f *testing.F) {
	requests := []wire.Frame{
		wire.EnqFrame(1, 42),
		wire.DeqFrame(2),
		wire.EnqBatchFrame(3, []int64{1, -2, 3}),
		wire.DeqBatchFrame(4, 8),
		wire.StatsFrame(5),
		wire.PingFrame(6),
	}
	for _, r := range requests {
		f.Add(append([]byte{0}, encodeFrames(f, r)...))
	}
	all := encodeFrames(f, requests...)
	f.Add(append([]byte{0}, all...))
	f.Add(append([]byte{40}, all...))             // the write fails mid-stream
	f.Add(append([]byte{0}, all[:len(all)-3]...)) // the last frame is truncated
	corrupt := append([]byte{0}, all...)
	corrupt[len(corrupt)-5] ^= 0x01 // the last frame fails its checksum
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		s := New(Config{Queue: core.NewMS[int]()})
		conn := &fakeConn{in: data[1:], fail: data[0] != 0, limit: int(data[0])}
		s.ServeConn(conn)

		left := 0
		for {
			if _, ok := s.cfg.Queue.Dequeue(); !ok {
				break
			}
			left++
		}
		if int64(left) != s.Backlog() {
			t.Fatalf("%d values left in the queue, backlog %d", left, s.Backlog())
		}

		// The request ids, in the order the server read them.
		var ids []uint64
		var buf []byte
		for r := bytes.NewReader(data[1:]); ; {
			req, newBuf, err := wire.Read(r, buf)
			buf = newBuf
			if err != nil {
				break
			}
			ids = append(ids, req.ID)
		}
		out := bytes.NewReader(conn.out.Bytes())
		answered, delivered, sawErr := 0, 0, false
		for ; !sawErr; answered++ {
			resp, newBuf, err := wire.Read(out, buf)
			buf = newBuf
			if err == io.EOF || (conn.fail && errors.Is(err, io.ErrUnexpectedEOF)) {
				break // the end of the output, or the failed write cut it
			}
			if err != nil {
				t.Fatalf("response %d does not parse: %v", answered, err)
			}
			if answered >= len(ids) || resp.ID != ids[answered] {
				t.Fatalf("response %d (%v) has id %d, want the id of request %d of %d", answered, resp.Type, resp.ID, answered, len(ids))
			}
			switch resp.Type {
			case wire.Value:
				delivered++
			case wire.Values:
				vs, _ := wire.DecodeValues(resp.Payload)
				delivered += len(vs)
			case wire.Err:
				sawErr = true
			}
		}
		if sawErr && out.Len() != 0 {
			t.Fatalf("%d bytes written after ERR", out.Len())
		}
		if !conn.fail && !sawErr && answered != len(ids) {
			t.Fatalf("%d of %d requests answered with no write failure", answered, len(ids))
		}
		// A value settles only after the flush that carried it succeeded,
		// so it was written in full.
		if settled := s.Counters().Dequeued; settled > uint64(delivered) {
			t.Fatalf("%d values settled as delivered, %d written to the peer", settled, delivered)
		}
	})
}
