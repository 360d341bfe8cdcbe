package server

import (
	"fmt"
	"testing"

	"msqueue/internal/metrics"
	"msqueue/internal/race"
	"msqueue/internal/ring"
	"msqueue/internal/telemetry"
	"msqueue/internal/wire"
)

// TestServeConnAllocatesNothing pins the serving path: after warm-up, one
// ENQ and one DEQ through ServeConn over net.Pipe, on a server configured
// like qserve (probe and flight recorder on) in front of a queue that
// allocates nothing itself, allocate nothing.
func TestServeConnAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	s := New(Config{Queue: ring.New[int](16), Probe: metrics.NewProbe(),
		Events: telemetry.NewRecorder(telemetry.DefaultRecorderSize)})
	c := pipeServer(t, s)
	enq, deq := encodeFrames(t, wire.EnqFrame(1, 42)), encodeFrames(t, wire.DeqFrame(2))
	var err error
	roundTrip := func(req []byte, want wire.Type) {
		if _, err = c.conn.Write(req); err != nil {
			return
		}
		var f wire.Frame
		if f, c.buf, err = wire.Read(c.conn, c.buf); err == nil && f.Type != want {
			err = fmt.Errorf("got %v, want %v", f.Type, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if roundTrip(enq, wire.Ack); err == nil {
			roundTrip(deq, wire.Value)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("an ENQ and a DEQ allocated %v times, want 0", allocs)
	}
}
