package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"msqueue/internal/algorithms"
	"msqueue/internal/client"
	"msqueue/internal/harness"
	"msqueue/internal/metrics"
	"msqueue/internal/queue"
	"msqueue/internal/server"
	"msqueue/internal/telemetry"
)

// Benchmark constants. They are not flags, so a parent commit and a change
// always run the same benchmark.
const (
	trials       = 50                    // trials per workload per run
	traceTrials  = 5                     // traced (and as many untraced) trials per traced workload
	warmup       = 50 * time.Millisecond // closed loop running before each window opens
	pairsProcs   = 2                     // queue-pairs processors: nproc on the reference host
	pairsChunk   = 8192                  // pairs per harness.Run call on queue-pairs
	pipeCallers  = 16                    // callers sharing the pipelined-1conn connection
	batchSize    = 64                    // elements per batch call on batch64-1conn
	ringCap      = 4096                  // ring capacity on batch64-1conn
	drainTimeout = 5 * time.Second
)

// A workload is one traffic mix. Network workloads run against a fresh
// in-process server per trial, configured like `qserve -algo A -cap C
// -admin`: a probe on the queue and the server, and a flight recorder.
// Every load is a closed loop from this process on one connection,
// because qserve's callers are producers and consumers that wait for each
// response.
type workload struct {
	name     string
	algo     string
	capacity int
	callers  int
	// step runs one iteration of a caller's closed loop.
	step func(cl *client.Client, c *caller) error
}

var workloads = []workload{
	{name: "queue-pairs", algo: "ms"},
	{name: "rtt-1conn", algo: "ms", callers: 1, step: pairStep},
	{name: "pipelined-1conn", algo: "ms", callers: pipeCallers, step: pairStep},
	{name: "batch64-1conn", algo: "ring", capacity: ringCap, callers: 1, step: batchStep},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// trialResult is what one trial measured over its window.
type trialResult struct {
	setup    time.Duration
	window   time.Duration
	ops      int64 // elements enqueued or dequeued in the window
	calls    int64 // calls attempted, warm-up and drain included
	fails    int64 // call errors plus server RETRY responses
	lat      []float64
	cpu      time.Duration
	mallocs  float64
	bytes    float64
	deqCalls int64
	deqHits  int64
}

// figures returns the end-to-end metrics of one trial.
func figures(t trialResult) map[string]float64 {
	ops := float64(t.ops)
	q := nearestRankOf(t.lat)
	return map[string]float64{
		"setup_s":            t.setup.Seconds(),
		"throughput_ops_s":   ops / t.window.Seconds(),
		"lat_p50_us":         q(0.50),
		"lat_p99_us":         q(0.99),
		"cpu_us_per_op":      float64(t.cpu.Nanoseconds()) / 1e3 / ops,
		"allocs_per_op":      t.mallocs / ops,
		"alloc_bytes_per_op": t.bytes / ops,
	}
}

// nearestRankOf sorts a copy of vals once and returns a quantile function
// over it.
func nearestRankOf(vals []float64) func(q float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return func(q float64) float64 { return nearestRank(s, q) }
}

// meter is a snapshot of the process-wide counters a window is measured
// by. Reads go through a value this package owns, so taking a snapshot
// allocates nothing. The window's clock reading, at, is taken by the
// caller on the window's side of the stop-the-world ReadMemStats.
type meter struct {
	at    time.Time
	cpu   time.Duration
	mem   runtime.MemStats
	grown int
}

func (m *meter) read(pool *chunkPool) {
	runtime.ReadMemStats(&m.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	pool.mu.Lock()
	m.grown = pool.grown
	pool.mu.Unlock()
}

// account fills r's window, CPU and allocation fields from two snapshots.
// Sample chunks allocated inside the window are the benchmark's own and
// are subtracted.
func account(r *trialResult, start, end *meter) {
	r.window = end.at.Sub(start.at)
	r.cpu = end.cpu - start.cpu
	grown := end.grown - start.grown
	r.mallocs = float64(end.mem.Mallocs - start.mem.Mallocs - uint64(grown))
	r.bytes = float64(end.mem.TotalAlloc - start.mem.TotalAlloc - uint64(grown*chunkLen*8))
}

// runTrial runs one trial of w with a measured window of length window.
// A returned error is a correctness violation or a broken run.
func runTrial(w workload, window time.Duration, seed int64, trial int) (trialResult, error) {
	where := oneCPU
	if w.step == nil {
		where = allCPUs
	}
	if err := place(where); err != nil {
		return trialResult{}, err
	}
	runtime.GC() // every trial starts from the same heap state
	if w.step == nil {
		return runPairsTrial(window)
	}
	res, _, err := runNetTrial(w, window, seed, trial, hooks{})
	return res, err
}

// runPairsTrial is the paper's Figure 3 at p = pairsProcs and no other
// work, through harness.Run. A latency sample is the mean time one process
// spends per queue operation over one chunk of pairsChunk pairs; a single
// 70 ns operation cannot be timed without the clock dominating it.
func runPairsTrial(window time.Duration) (trialResult, error) {
	info, err := algorithms.Lookup("ms")
	if err != nil {
		return trialResult{}, err
	}
	var res trialResult
	chunk := func(pairs int) (harness.Result, error) {
		var q queue.Queue[int]
		r, err := harness.Run(harness.Config{
			New:               func(c int) queue.Queue[int] { q = info.New(c); return q },
			Processors:        pairsProcs,
			ProcsPerProcessor: 1,
			Pairs:             pairs,
			OtherWork:         -1,
		})
		res.calls += 2 * int64(pairs)
		switch {
		case err != nil:
			return r, err
		case r.Pairs != pairs:
			return r, fmt.Errorf("queue-pairs: harness ran %d pairs, want %d", r.Pairs, pairs)
		case r.EmptyDequeues != 0:
			// Each process enqueues before it dequeues, so a linearizable
			// queue is never empty when a dequeue runs.
			return r, fmt.Errorf("queue-pairs: %d dequeues found the queue empty", r.EmptyDequeues)
		}
		if v, ok := q.Dequeue(); ok {
			return r, fmt.Errorf("queue-pairs: value %d left in the queue after %d pairs", v, pairs)
		}
		return r, nil
	}

	start := time.Now()
	if _, err := chunk(pairsProcs); err != nil {
		return res, err
	}
	res.setup = time.Since(start)

	for time.Since(start) < warmup {
		if _, err := chunk(pairsChunk); err != nil {
			return res, err
		}
	}
	var pool chunkPool
	lat := make([]float64, 0, 4096)
	var m0, m1 meter
	m0.read(&pool)
	m0.at = time.Now()
	for time.Since(m0.at) < window {
		r, err := chunk(pairsChunk)
		if err != nil {
			return res, err
		}
		res.ops += 2 * pairsChunk
		if len(lat) < cap(lat) {
			lat = append(lat, float64(r.Total.Nanoseconds())*pairsProcs/(2*pairsChunk)/1e3)
		}
	}
	m1.at = time.Now()
	m1.read(&pool)
	account(&res, &m0, &m1)
	res.lat = lat
	return res, nil
}

// Closed-loop phases.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// caller is one closed-loop client goroutine's state. Only its goroutine
// touches it until the trial joins the callers.
type caller struct {
	id        uint64
	key       uint64 // the trial's value key, see value
	next      uint32 // index of the next value this caller enqueues
	acked     uint32 // values acknowledged: always the prefix [0, acked)
	measuring bool
	progress  *atomic.Int64 // shared count of samples recorded, sizes the window's reservation

	vals samples // every value this caller dequeued
	lat  samples // nanoseconds per call started in the window

	calls, ops, deqCalls, deqHits int64 // window counts
	allCalls                      int64
	err                           error

	buf []int // batch buffer
	// onCall, when set, receives every call's start and end (traced runs).
	onCall func(start, end time.Time)
}

// value returns this caller's j-th value. Values are unique per trial and
// derived from the seed: the index pair (caller, j) XOR the trial key, so
// a dequeued value maps back to the caller and index that produced it.
func (c *caller) value(j uint32) int {
	return int(int64((c.id<<32 | uint64(j)) ^ c.key))
}

func (c *caller) done(start time.Time, ops int64) {
	end := time.Now()
	c.allCalls++
	if c.onCall != nil {
		c.onCall(start, end)
	}
	if c.measuring {
		c.lat.add(int64(end.Sub(start)))
		c.calls++
		c.ops += ops
	}
}

func (c *caller) got(v int) {
	c.vals.add(int64(v))
}

func (c *caller) enq(cl *client.Client) error {
	start := time.Now()
	if err := cl.Enqueue(c.value(c.next)); err != nil {
		return fmt.Errorf("enqueue: %w", err)
	}
	c.next++
	c.acked = c.next
	c.done(start, 1)
	c.progress.Add(1)
	return nil
}

func (c *caller) deq(cl *client.Client) error {
	start := time.Now()
	v, ok, err := cl.Dequeue()
	if err != nil {
		return fmt.Errorf("dequeue: %w", err)
	}
	var n int64
	if ok {
		c.got(v)
		n = 1
	}
	c.done(start, n)
	if c.measuring {
		c.deqCalls++
		c.deqHits += n
	}
	c.progress.Add(1 + n)
	return nil
}

// pairStep is one Enqueue then one Dequeue: on one caller the dequeue
// always returns the value just enqueued; on many it may find the queue
// empty when another caller took that value first.
func pairStep(cl *client.Client, c *caller) error {
	if err := c.enq(cl); err != nil {
		return err
	}
	return c.deq(cl)
}

// batchStep enqueues batchSize values in one EnqueueBatch and dequeues
// batches until as many came back.
func batchStep(cl *client.Client, c *caller) error {
	if c.buf == nil {
		c.buf = make([]int, batchSize)
	}
	for i := range c.buf {
		c.buf[i] = c.value(c.next + uint32(i))
	}
	start := time.Now()
	n, err := cl.EnqueueBatch(c.buf)
	if err != nil {
		return fmt.Errorf("enqueue batch: %w", err)
	}
	c.next += uint32(n)
	c.acked = c.next
	c.done(start, int64(n))
	for want := n; want > 0; {
		start = time.Now()
		m, err := cl.DequeueBatch(c.buf[:want])
		if err != nil {
			return fmt.Errorf("dequeue batch: %w", err)
		}
		if m == 0 {
			return fmt.Errorf("dequeue batch: queue empty with %d of this caller's values outstanding", want)
		}
		for _, v := range c.buf[:m] {
			c.got(v)
		}
		c.done(start, int64(m))
		c.progress.Add(1 + int64(m))
		want -= m
	}
	return nil
}

// fixture is one trial's system under test and its client.
type fixture struct {
	srv    *server.Server
	cl     *client.Client
	addr   string
	served chan error
}

// hooks let the per-layer pass look inside a network trial; the zero value
// runs the plain trial.
type hooks struct {
	// listener and dial wrap the server's listener and the client's
	// connection.
	listener func(net.Listener) net.Listener
	dial     func(addr string) func() (net.Conn, error)
	// onCall receives every call's start and end; single-caller
	// workloads only.
	onCall func(start, end time.Time)
	// after runs once the queue is drained and checked, with the server
	// still up.
	after func(f *fixture) error
}

// newServer builds a queue and a server for it the way `qserve -algo A
// -cap C -admin` does: one probe on both, and a flight recorder.
func newServer(algo string, capacity int) (*server.Server, error) {
	info, err := algorithms.Lookup(algo)
	if err != nil {
		return nil, err
	}
	q := info.New(capacity)
	probe := metrics.NewProbe()
	if in, ok := q.(metrics.Instrumented); ok {
		in.SetProbe(probe)
	}
	return server.New(server.Config{
		Queue:  q,
		Probe:  probe,
		Events: telemetry.NewRecorder(telemetry.DefaultRecorderSize),
	}), nil
}

// openFixture builds the queue and server, listens on loopback, dials and
// gets the first PING answered: the set-up a user of qserve waits for.
func openFixture(w workload, h hooks) (*fixture, time.Duration, error) {
	start := time.Now()
	srv, err := newServer(w.algo, w.capacity)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	f := &fixture{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	if h.listener != nil {
		ln = h.listener(ln)
	}
	go func() { f.served <- srv.Serve(ln) }()
	cfg := client.Config{Addr: f.addr}
	if h.dial != nil {
		cfg.Dial = h.dial(f.addr)
	}
	f.cl = client.New(cfg)
	if err := f.cl.Ping(); err != nil {
		f.close()
		return nil, 0, fmt.Errorf("first ping: %w", err)
	}
	return f, time.Since(start), nil
}

// close drains the server gracefully and waits for Serve to return.
func (f *fixture) close() error {
	f.cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := f.srv.Drain(ctx)
	if serr := <-f.served; serr != nil && !errors.Is(serr, server.ErrServerClosed) && err == nil {
		err = fmt.Errorf("serve: %w", serr)
	}
	return err
}

// runNetTrial runs one network trial: set-up, warm-up, the measured
// window, then a drain of the queue and the conservation check. It also
// returns the window's bounds.
func runNetTrial(w workload, window time.Duration, seed int64, trial int, h hooks) (trialResult, [2]time.Time, error) {
	var res trialResult
	f, setup, err := openFixture(w, h)
	if err != nil {
		return res, [2]time.Time{}, err
	}
	res.setup = setup
	bounds, err := f.load(w, window, seed, trial, h, &res)
	if err == nil && h.after != nil {
		err = h.after(f)
	}
	if err != nil {
		f.close()
		return res, bounds, err
	}
	if err := f.close(); err != nil {
		return res, bounds, fmt.Errorf("%s: drain: %w", w.name, err)
	}
	return res, bounds, nil
}

func (f *fixture) load(w workload, window time.Duration, seed int64, trial int, h hooks, res *trialResult) ([2]time.Time, error) {
	key := mix64(uint64(seed)<<16 ^ uint64(trial))
	var (
		pool     chunkPool
		progress atomic.Int64
		phase    atomic.Int32
		wg       sync.WaitGroup
	)
	pool.reserve(4 * w.callers)
	cs := make([]*caller, w.callers)
	for i := range cs {
		cs[i] = &caller{id: uint64(i), key: key, progress: &progress, onCall: h.onCall,
			vals: newSamples(&pool), lat: newSamples(&pool)}
	}
	for _, c := range cs {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for {
				ph := phase.Load()
				if ph == phaseStop {
					return
				}
				c.measuring = ph == phaseMeasure
				if err := w.step(f.cl, c); err != nil {
					c.err = err
					return
				}
			}
		}(c)
	}

	time.Sleep(warmup)
	// Reserve the window's sample chunks from the warm-up rate, with
	// headroom, so recording costs the measured system no allocation.
	rate := float64(progress.Load()) / warmup.Seconds()
	pool.reserve(int(rate*window.Seconds()*1.5)/chunkLen + 4*w.callers)
	var m0, m1 meter
	m0.read(&pool)
	m0.at = time.Now()
	phase.Store(phaseMeasure)
	time.Sleep(window)
	m1.at = time.Now()
	phase.Store(phaseStop)
	m1.read(&pool)
	wg.Wait()
	account(res, &m0, &m1)
	bounds := [2]time.Time{m0.at, m1.at}

	var errs []error
	for _, c := range cs {
		res.calls += c.allCalls
		res.ops += c.ops
		res.deqCalls += c.deqCalls
		res.deqHits += c.deqHits
		if c.err != nil {
			res.fails++
			errs = append(errs, fmt.Errorf("caller %d: %w", c.id, c.err))
		}
		res.lat = append(res.lat, c.lat.floats(1e-3)...)
	}
	if len(errs) > 0 {
		return bounds, fmt.Errorf("%s: %w", w.name, errors.Join(errs...))
	}

	// Drain what the callers left behind, then check conservation.
	rest := newSamples(&pool)
	for {
		v, ok, err := f.cl.Dequeue()
		res.calls++
		if err != nil {
			res.fails++
			return bounds, fmt.Errorf("%s: drain dequeue: %w", w.name, err)
		}
		if !ok {
			break
		}
		rest.add(int64(v))
	}
	retries, err := checkConservation(key, cs, &rest, f.srv)
	res.fails += int64(retries)
	if err != nil {
		return bounds, fmt.Errorf("%s: %w", w.name, err)
	}
	return bounds, nil
}

// checkConservation verifies that every acknowledged value was dequeued
// exactly once and nothing else was, and that the server's own tallies
// agree with the client's. It returns the server's RETRY count.
func checkConservation(key uint64, cs []*caller, rest *samples, srv *server.Server) (uint64, error) {
	seen := make([][]bool, len(cs))
	var acked, delivered uint64
	for i, c := range cs {
		seen[i] = make([]bool, c.acked)
		acked += uint64(c.acked)
	}
	var bad error
	check := func(v int64) {
		delivered++
		k := uint64(v) ^ key
		id, j := k>>32, uint32(k)
		switch {
		case bad != nil:
		case id >= uint64(len(cs)) || j >= cs[id].acked:
			bad = fmt.Errorf("dequeued value %d was never acknowledged", v)
		case seen[id][j]:
			bad = fmt.Errorf("value %d dequeued twice", v)
		default:
			seen[id][j] = true
		}
	}
	for _, c := range cs {
		c.vals.each(check)
	}
	rest.each(check)
	if bad != nil {
		return 0, bad
	}
	for i, s := range seen {
		for j, ok := range s {
			if !ok {
				return 0, fmt.Errorf("acknowledged value %d (caller %d, index %d) was never dequeued", cs[i].value(uint32(j)), i, j)
			}
		}
	}

	// The server settles a delivery only after the frame carrying it is
	// flushed, which can trail the client's read by a moment.
	deadline := time.Now().Add(drainTimeout)
	c := srv.Counters()
	for c.Dequeued != delivered && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		c = srv.Counters()
	}
	switch {
	case c.Enqueued != acked:
		return c.Retries, fmt.Errorf("server counted %d enqueued, client %d acknowledged", c.Enqueued, acked)
	case c.Dequeued != delivered:
		return c.Retries, fmt.Errorf("server counted %d dequeued, client received %d", c.Dequeued, delivered)
	case srv.Lost() != 0:
		return c.Retries, fmt.Errorf("server lost %d acknowledged values", srv.Lost())
	case srv.Backlog() != 0:
		return c.Retries, fmt.Errorf("server backlog %d after a full drain", srv.Backlog())
	}
	return c.Retries, nil
}

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
