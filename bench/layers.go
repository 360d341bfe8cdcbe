package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"sort"
	"time"

	"msqueue/internal/algorithms"
	"msqueue/internal/client"
	"msqueue/internal/harness"
	"msqueue/internal/metrics"
	"msqueue/internal/queue"
	"msqueue/internal/wire"
)

// Layer microbenchmark sizes: each repetition lasts some milliseconds, and
// every timing is the median of layerReps repetitions.
const (
	layerReps     = 5
	layerPairs    = 1 << 18 // pairs per harness.Run on the queue layer
	layerBatches  = 1 << 14 // batch round trips on the ring
	layerFrames   = 1 << 16 // frames per wire encode/decode repetition
	layerBatchFrm = 1 << 13 // batch frames per repetition
	layerRequests = 1 << 14 // requests per server or client phase over net.Pipe
)

// runPerLayer measures every layer from outside, by timing calls into its
// public API. With traced set it also runs the traced pass, which is what
// --trace 1 prints: every per-layer metric.
func runPerLayer(p plan, seed int64, traced bool, stdout io.Writer) (*report, error) {
	if err := place(oneCPU); err != nil {
		return nil, err
	}
	rep := &report{}
	steps := []func(*report) error{queueLayer, wireLayer, serverLayer, clientLayer}
	if traced {
		rep.TraceTrials, rep.TraceWindowS = p.traceTrials, p.traceWindow.Seconds()
		steps = append(steps, func(rep *report) error { return tracedPass(p, seed, rep) })
	}
	for _, step := range steps {
		runtime.GC()
		if err := step(rep); err != nil {
			return rep, err
		}
	}
	rep.print(stdout)
	return rep, nil
}

func medianOf(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return median(s)
}

// memDelta runs fn and returns the allocations it made.
func memDelta(fn func() error) (mallocs, bytes uint64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, err
}

// nsPerIter returns the median over layerReps of fn's time divided by n.
func nsPerIter(n int, fn func() error) (float64, error) {
	var ns []float64
	for r := 0; r < layerReps; r++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return medianOf(ns), nil
}

// queueLayer: a one-goroutine enqueue/dequeue pair through harness.Run
// (the paper's measurement, p = 1), with and without a probe, and the
// ring's batch operations called directly.
func queueLayer(rep *report) error {
	ms, err := algorithms.Lookup("ms")
	if err != nil {
		return err
	}
	ring, err := algorithms.Lookup("ring")
	if err != nil {
		return err
	}
	pair := func(info algorithms.Info, probe *metrics.Probe) (float64, error) {
		r, err := harness.Run(harness.Config{New: info.New, Processors: 1, ProcsPerProcessor: 1,
			Pairs: layerPairs, OtherWork: -1, Probe: probe})
		return float64(r.Total.Nanoseconds()) / layerPairs, err
	}
	// Repetitions alternate the three configurations so host drift hits
	// them alike.
	var msNs, ringNs, probedNs []float64
	for r := 0; r < layerReps; r++ {
		for _, run := range []struct {
			info  algorithms.Info
			probe *metrics.Probe
			out   *[]float64
		}{{ms, nil, &msNs}, {ring, nil, &ringNs}, {ms, metrics.NewProbe(), &probedNs}} {
			ns, err := pair(run.info, run.probe)
			if err != nil {
				return err
			}
			*run.out = append(*run.out, ns)
		}
	}
	mallocs, _, err := memDelta(func() error { _, err := pair(ms, nil); return err })
	if err != nil {
		return err
	}

	q, ok := ring.New(ringCap).(queue.Batcher[int])
	if !ok {
		return errors.New("queue layer: ring is not a queue.Batcher")
	}
	in, out := make([]int, batchSize), make([]int, batchSize)
	batchNs, err := nsPerIter(layerBatches*batchSize, func() error {
		for i := 0; i < layerBatches; i++ {
			if n := q.EnqueueBatch(in); n != batchSize {
				return fmt.Errorf("queue layer: ring accepted %d of %d", n, batchSize)
			}
			if n := q.DequeueBatch(out); n != batchSize {
				return fmt.Errorf("queue layer: ring returned %d of %d", n, batchSize)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	rep.addLayer("queue.pair_ns.ms", "ns", medianOf(msNs))
	rep.addLayer("queue.pair_ns.ring", "ns", medianOf(ringNs))
	rep.addLayer("queue.batch64_elem_ns.ring", "ns", batchNs)
	rep.addLayer("queue.allocs_per_pair.ms", "count", float64(mallocs)/layerPairs)
	rep.addLayer("metrics.probe_overhead_ns", "ns", medianOf(probedNs)-medianOf(msNs))
	return nil
}

// countingReader counts the Read calls a decoder makes; on a socket each
// is a system call.
type countingReader struct {
	r     io.Reader
	calls int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.calls++
	return c.r.Read(p)
}

// wireLayer: each frame type built with its wire constructor and encoded
// by wire.Write into a reused buffer, then read back by wire.Read from a
// bytes.Reader and its payload decoded.
func wireLayer(rep *report) error {
	vals := make([]int64, batchSize)
	for i := range vals {
		vals[i] = int64(i) << 20
	}
	decodeValue := func(f wire.Frame) error { _, err := wire.DecodeValue(f.Payload); return err }
	decodeValues := func(f wire.Frame) error { _, err := wire.DecodeValues(f.Payload); return err }
	frames := []struct {
		name   string
		n      int
		build  func() wire.Frame
		decode func(wire.Frame) error
	}{
		{"ENQ", layerFrames, func() wire.Frame { return wire.EnqFrame(1, 42) }, decodeValue},
		{"VALUE", layerFrames, func() wire.Frame { return wire.ValueFrame(1, 42) }, decodeValue},
		{"ENQ_BATCH64", layerBatchFrm, func() wire.Frame { return wire.EnqBatchFrame(1, vals) }, decodeValues},
		{"VALUES64", layerBatchFrm, func() wire.Frame { return wire.ValuesFrame(1, vals) }, decodeValues},
	}
	for _, f := range frames {
		var buf bytes.Buffer
		encode := func() error {
			for i := 0; i < f.n; i++ {
				buf.Reset()
				if err := wire.Write(&buf, f.build()); err != nil {
					return err
				}
			}
			return nil
		}
		if err := encode(); err != nil {
			return fmt.Errorf("wire layer: %s: %w", f.name, err)
		}
		enc := append([]byte(nil), buf.Bytes()...)
		rd := bytes.NewReader(enc)
		var rbuf []byte
		decode := func() error {
			for i := 0; i < f.n; i++ {
				rd.Reset(enc)
				fr, b, err := wire.Read(rd, rbuf)
				rbuf = b
				if err != nil {
					return err
				}
				if err := f.decode(fr); err != nil {
					return err
				}
			}
			return nil
		}
		encNs, err := nsPerIter(f.n, encode)
		if err != nil {
			return fmt.Errorf("wire layer: %s: %w", f.name, err)
		}
		decNs, err := nsPerIter(f.n, decode)
		if err != nil {
			return fmt.Errorf("wire layer: %s: %w", f.name, err)
		}
		mallocs, _, err := memDelta(func() error {
			if err := encode(); err != nil {
				return err
			}
			return decode()
		})
		if err != nil {
			return fmt.Errorf("wire layer: %s: %w", f.name, err)
		}
		rep.addLayer("wire.encode_ns."+f.name, "ns", encNs)
		rep.addLayer("wire.decode_ns."+f.name, "ns", decNs)
		rep.addLayer("wire.allocs."+f.name, "count", float64(mallocs)/float64(f.n))
	}

	var enq bytes.Buffer
	if err := wire.Write(&enq, wire.EnqFrame(1, 42)); err != nil {
		return err
	}
	cr := &countingReader{r: bytes.NewReader(enq.Bytes())}
	if _, _, err := wire.Read(cr, nil); err != nil {
		return fmt.Errorf("wire layer: %w", err)
	}
	rep.addLayer("wire.reads_per_frame", "count", float64(cr.calls))
	return nil
}

// readFrame reads one frame into buf without allocating and returns its
// type and payload.
func readFrame(r io.Reader, buf []byte) (wire.Type, []byte, error) {
	if _, err := io.ReadFull(r, buf[:frameHead]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(buf[1:frameHead]))
	if frameHead+n+frameTrail > len(buf) {
		return 0, nil, fmt.Errorf("frame of %d bytes exceeds the %d-byte buffer", n, len(buf))
	}
	if _, err := io.ReadFull(r, buf[frameHead:frameHead+n+frameTrail]); err != nil {
		return 0, nil, err
	}
	return wire.Type(buf[frameHead]), buf[frameIDEnd : frameHead+n], nil
}

func encodeFrame(f wire.Frame) []byte {
	var b bytes.Buffer
	wire.Write(&b, f) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

// pipeServer is a server reached over net.Pipe: the benchmark writes
// pre-encoded request frames and reads the responses into a reused buffer,
// so no kernel is involved and the only allocations are the server's.
type pipeServer struct {
	conn   net.Conn
	served chan struct{}
	buf    []byte
}

func openPipeServer(algo string, capacity int) (*pipeServer, error) {
	srv, err := newServer(algo, capacity)
	if err != nil {
		return nil, err
	}
	conn, peer := net.Pipe()
	p := &pipeServer{conn: conn, served: make(chan struct{}), buf: make([]byte, 1<<12)}
	go func() {
		defer close(p.served)
		srv.ServeConn(peer)
	}()
	return p, nil
}

// roundTrip sends req and returns how long its response, of type want,
// took to come back, in nanoseconds.
func (p *pipeServer) roundTrip(req []byte, want wire.Type) (float64, error) {
	start := time.Now()
	if _, err := p.conn.Write(req); err != nil {
		return 0, err
	}
	typ, _, err := readFrame(p.conn, p.buf)
	d := float64(time.Since(start).Nanoseconds())
	if err == nil && typ != want {
		err = fmt.Errorf("got %v, want %v", typ, want)
	}
	return d, err
}

func (p *pipeServer) close() {
	p.conn.Close()
	<-p.served
}

// serverLayer: Server.ServeConn over net.Pipe. ENQ and DEQ run as separate
// phases on ms, so each has its own allocation count; the batch frames
// alternate on the ring, whose capacity bounds what one phase could hold.
func serverLayer(rep *report) error {
	ms, err := openPipeServer("ms", 0)
	if err != nil {
		return err
	}
	defer ms.close()
	for _, r := range []struct {
		name string
		req  []byte
		want wire.Type
	}{
		{"ENQ", encodeFrame(wire.EnqFrame(1, 42)), wire.Ack},
		{"DEQ", encodeFrame(wire.DeqFrame(2)), wire.Value},
	} {
		lat := make([]float64, 0, layerRequests)
		mallocs, _, err := memDelta(func() error {
			for i := 0; i < layerRequests; i++ {
				d, err := ms.roundTrip(r.req, r.want)
				if err != nil {
					return err
				}
				lat = append(lat, d)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("server layer: %s: %w", r.name, err)
		}
		rep.addLayer("server.pipe_rtt_ns."+r.name, "ns", medianOf(lat))
		rep.addLayer("server.allocs_per_req."+r.name, "count", float64(mallocs)/layerRequests)
	}

	ring, err := openPipeServer("ring", ringCap)
	if err != nil {
		return err
	}
	defer ring.close()
	enq := encodeFrame(wire.EnqBatchFrame(3, make([]int64, batchSize)))
	deq := encodeFrame(wire.DeqBatchFrame(4, batchSize))
	var enqLat, deqLat []float64
	for i := 0; i < layerRequests/8; i++ {
		d, err := ring.roundTrip(enq, wire.Ack)
		if err != nil {
			return fmt.Errorf("server layer: ENQ_BATCH64: %w", err)
		}
		enqLat = append(enqLat, d)
		if d, err = ring.roundTrip(deq, wire.Values); err != nil {
			return fmt.Errorf("server layer: DEQ_BATCH64: %w", err)
		}
		deqLat = append(deqLat, d)
	}
	rep.addLayer("server.pipe_rtt_ns.ENQ_BATCH64", "ns", medianOf(enqLat))
	rep.addLayer("server.pipe_rtt_ns.DEQ_BATCH64", "ns", medianOf(deqLat))
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// respond answers the client's requests on conn with canned frames built
// in reused buffers, until conn fails: ACK to ENQ, VALUE to DEQ, PONG to
// PING. It allocates nothing per request, so a client measured against it
// is charged only its own allocations.
func respond(conn net.Conn) {
	in := make([]byte, 1<<12)
	out := make([]byte, 64)
	var next uint64
	for {
		typ, _, err := readFrame(conn, in)
		if err != nil {
			return
		}
		var payload int
		switch typ {
		case wire.Enq:
			out[frameHead] = byte(wire.Ack)
		case wire.Deq:
			out[frameHead] = byte(wire.Value)
			binary.BigEndian.PutUint64(out[frameIDEnd:], next)
			next++
			payload = 8
		default:
			out[frameHead] = byte(wire.Pong)
		}
		out[0] = wire.Magic
		body := 1 + 8 + payload
		binary.BigEndian.PutUint32(out[1:], uint32(body))
		copy(out[frameHead+1:frameIDEnd], in[frameHead+1:frameIDEnd])
		crc := crc32.Checksum(out[:frameHead+body], castagnoli)
		binary.BigEndian.PutUint32(out[frameHead+body:], crc)
		if _, err := conn.Write(out[:frameHead+body+frameTrail]); err != nil {
			return
		}
	}
}

// clientLayer: client.Client dialed over net.Pipe to respond, timing each
// Enqueue and Dequeue call in its own phase.
func clientLayer(rep *report) error {
	conn, peer := net.Pipe()
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		respond(peer)
	}()
	dialed := false
	cl := client.New(client.Config{Dial: func() (net.Conn, error) {
		if dialed {
			return nil, errors.New("client layer: redial over a one-shot pipe")
		}
		dialed = true
		return conn, nil
	}})
	defer func() {
		cl.Close()
		<-answered
	}()
	if err := cl.Ping(); err != nil {
		return fmt.Errorf("client layer: %w", err)
	}
	calls := []struct {
		name string
		call func(i int) error
	}{
		{"ENQ", func(i int) error { return cl.Enqueue(i) }},
		{"DEQ", func(int) error {
			if _, ok, err := cl.Dequeue(); err != nil || !ok {
				return fmt.Errorf("dequeue: ok=%v: %v", ok, err)
			}
			return nil
		}},
	}
	for _, c := range calls {
		lat := make([]float64, 0, layerRequests)
		mallocs, _, err := memDelta(func() error {
			for i := 0; i < layerRequests; i++ {
				start := time.Now()
				if err := c.call(i); err != nil {
					return err
				}
				lat = append(lat, float64(time.Since(start).Nanoseconds()))
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("client layer: %s: %w", c.name, err)
		}
		rep.addLayer("client.call_ns."+c.name, "ns", medianOf(lat))
		rep.addLayer("client.allocs_per_call."+c.name, "count", float64(mallocs)/layerRequests)
	}
	return nil
}

// tracedPass runs traceTrials traced and as many untraced trials of the
// two workloads whose round trips the trace can attribute: rtt-1conn,
// where one caller makes the call → request mapping exact, and
// pipelined-1conn. Traced and untraced trials alternate which runs first.
// The untraced rtt-1conn trials also run rawLoop against the same server.
func tracedPass(p plan, seed int64, rep *report) error {
	per := map[string][]float64{}
	units := map[string]string{}
	add := func(name, unit string, v float64) {
		per[name] = append(per[name], v)
		units[name] = unit
	}
	tput := map[string][]float64{}
	for t := 0; t < p.traceTrials; t++ {
		for _, name := range []string{"rtt-1conn", "pipelined-1conn"} {
			w, err := lookupWorkload(name)
			if err != nil {
				return err
			}
			traced := func() error {
				tr := &tracer{}
				res, window, err := runNetTrial(w, p.traceWindow, seed, t, tr.hooks(w.callers))
				rep.Attempted += res.calls
				rep.Failed += res.fails
				if err != nil {
					return err
				}
				stages, counts, err := tr.join(window)
				if err != nil {
					return err
				}
				prefix := "trace." + name + "."
				names := wireStages
				if w.callers == 1 {
					names = callStages
				}
				for _, st := range names {
					q := nearestRankOf(stages[st])
					add(prefix+st+".p50_us", "us", q(0.50))
					add(prefix+st+".p99_us", "us", q(0.99))
				}
				if w.callers == 1 {
					add(prefix+"closure_ratio", "ratio", closure(stages))
				}
				for k, v := range counts {
					add(prefix+k, "count", v)
				}
				tput[name+"/traced"] = append(tput[name+"/traced"], figures(res)["throughput_ops_s"])
				return nil
			}
			plain := func() error {
				var raw []float64
				h := hooks{}
				if w.callers == 1 {
					h.after = func(f *fixture) (err error) {
						raw, err = rawLoop(f.addr, p.traceWindow/2)
						return err
					}
				}
				res, _, err := runNetTrial(w, p.traceWindow, seed, t, h)
				rep.Attempted += res.calls
				rep.Failed += res.fails
				if err != nil {
					return err
				}
				m := figures(res)
				tput[name+"/plain"] = append(tput[name+"/plain"], m["throughput_ops_s"])
				if w.callers == 1 {
					q := nearestRankOf(raw)
					add("tcp.raw_rtt_us.p50", "us", q(0.50))
					add("tcp.raw_rtt_us.p99", "us", q(0.99))
					add("client.overhead_us", "us", m["lat_p50_us"]-q(0.50))
				} else {
					add("queue.deq_hit_ratio", "ratio", float64(res.deqHits)/float64(res.deqCalls))
				}
				return nil
			}
			order := []func() error{traced, plain}
			if t%2 == 1 {
				order[0], order[1] = plain, traced
			}
			for _, run := range order {
				runtime.GC()
				if err := run(); err != nil {
					return fmt.Errorf("traced pass, trial %d: %w", t, err)
				}
			}
		}
	}
	for _, name := range []string{"rtt-1conn", "pipelined-1conn"} {
		traced, plain := medianOf(tput[name+"/traced"]), medianOf(tput[name+"/plain"])
		add("trace."+name+".overhead_pct", "%", 100*(plain-traced)/plain)
	}
	names := make([]string, 0, len(per))
	for k := range per {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		rep.addLayer(k, units[k], medianOf(per[k]))
	}
	return nil
}
