package client

import (
	"net"
	"testing"

	"msqueue/internal/race"
	"msqueue/internal/wire"
)

// respond answers requests on conn without allocating, until conn fails:
// ACK to ENQ, VALUE 7 to DEQ, PONG to anything else.
func respond(conn net.Conn) {
	var in, out []byte
	for {
		f, b, err := wire.Read(conn, in)
		if err != nil {
			return
		}
		in = b
		switch f.Type {
		case wire.Enq:
			out = wire.AppendFrame(out[:0], wire.Ack, f.ID)
		case wire.Deq:
			out = wire.AppendValueFrame(out[:0], wire.Value, f.ID, 7)
		default:
			out = wire.AppendFrame(out[:0], wire.Pong, f.ID)
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// TestCallAllocatesNothing pins the client's call path: after warm-up, one
// Enqueue and one Dequeue against a responder that allocates nothing
// allocate nothing.
func TestCallAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	conn, peer := net.Pipe()
	go respond(peer)
	c := New(Config{Dial: func() (net.Conn, error) { return conn, nil }})
	defer c.Close()
	var err error
	var v int
	allocs := testing.AllocsPerRun(100, func() {
		if err = c.Enqueue(1); err == nil {
			v, _, err = c.Dequeue()
		}
	})
	if err != nil || v != 7 {
		t.Fatalf("Dequeue = %d, %v; want 7, nil", v, err)
	}
	if allocs != 0 {
		t.Fatalf("an Enqueue and a Dequeue allocated %v times, want 0", allocs)
	}
}
