// Package inject provides labelled pause points for fault-injection tests.
//
// The paper's central argument is about what happens when a process is
// delayed "at an inopportune moment" (preemption, page fault). The queue
// implementations in this module expose optional trace hooks at the
// interesting instants of their algorithms (named after the pseudo-code
// line labels, e.g. "E9:before-cas"). Tests install a Tracer to stall one
// goroutine at such a point and then observe whether other goroutines still
// make progress — distinguishing non-blocking algorithms from blocking ones
// and reproducing the published race conditions deterministically.
//
// Hooks are nil in production use; the hot-path cost is one nil check.
package inject

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Point identifies an instant inside an algorithm, conventionally
// "<line-label>:<description>" matching the paper's pseudo-code, e.g.
// "E7:after-consistency-check".
type Point string

// Tracer receives control at labelled points of an instrumented algorithm.
// Implementations may block to simulate a delayed process.
type Tracer interface {
	At(p Point)
}

// Func adapts a function to the Tracer interface.
type Func func(Point)

// At implements Tracer.
func (f Func) At(p Point) { f(p) }

// Traceable is implemented by queues and locks that accept a Tracer. It is
// the discovery interface of the chaos adversary engine: an algorithm is
// eligible for crash-stop verification exactly when its catalog constructor
// returns a Traceable value. SetTracer must be called before the value is
// shared between goroutines; a nil tracer (the default) costs one nil check
// per pause point.
type Traceable interface {
	SetTracer(Tracer)
}

// Gate is a one-shot Tracer that stalls the first goroutine reaching a
// designated point until released, letting a test interleave other
// operations around the stalled one.
//
// Usage:
//
//	g := inject.NewGate("E9:before-cas")
//	q.SetTracer(g)
//	go func() { q.Enqueue(1); close(done) }()
//	<-g.Entered()        // the enqueuer is now frozen mid-operation
//	...                  // drive other goroutines
//	g.Release()          // let the frozen enqueuer finish
//	<-done
type Gate struct {
	point    Point
	armed    atomic.Bool
	entered  chan struct{}
	released chan struct{}
}

// NewGate returns an armed Gate for the given point.
func NewGate(p Point) *Gate {
	g := &Gate{
		point:    p,
		entered:  make(chan struct{}),
		released: make(chan struct{}),
	}
	g.armed.Store(true)
	return g
}

// At implements Tracer: the first caller to reach the gate's point blocks
// until Release; every other call falls through immediately.
func (g *Gate) At(p Point) {
	if p != g.point || !g.armed.CompareAndSwap(true, false) {
		return
	}
	close(g.entered)
	<-g.released
}

// Entered is closed once a goroutine is stalled at the gate.
func (g *Gate) Entered() <-chan struct{} { return g.entered }

// Release lets the stalled goroutine continue. It must be called exactly
// once per gate.
func (g *Gate) Release() { close(g.released) }

// Counter is a Tracer that counts visits per point; tests use it to assert
// that an execution actually exercised the intended code path.
type Counter struct {
	mu     sync.Mutex
	counts map[Point]int
}

// At implements Tracer.
func (c *Counter) At(p Point) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.counts == nil {
		c.counts = make(map[Point]int)
	}
	c.counts[p]++
}

// Count reports how many times point p was reached.
func (c *Counter) Count(p Point) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[p]
}

// Points returns every point visited at least once, sorted by name. The
// chaos engine uses it to discover which pause points an algorithm actually
// exposes on its executed paths.
func (c *Counter) Points() []Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	points := make([]Point, 0, len(c.counts))
	for p := range c.counts {
		points = append(points, p)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	return points
}

// TimedGate is a Gate that cannot deadlock the test that armed it: if the
// stalled goroutine is not released within the timeout after it entered,
// the gate releases it automatically and records the fact. Tests assert
// TimedOut() == false after the orchestrated interleaving completes, so a
// pause point that is never driven shows up as a test failure instead of a
// hang (the failure mode of the plain one-shot Gate).
//
// Unlike Gate.Release, TimedGate.Release is idempotent: it may race with
// the auto-release and may be called from deferred cleanup paths.
type TimedGate struct {
	*Gate
	timedOut atomic.Bool
	release  sync.Once
}

// NewGateWithTimeout returns an armed TimedGate for the given point with
// the given auto-release timeout (measured from the moment a goroutine
// enters the gate, not from construction).
func NewGateWithTimeout(p Point, timeout time.Duration) *TimedGate {
	t := &TimedGate{Gate: NewGate(p)}
	go func() {
		select {
		case <-t.Gate.entered:
			timer := time.NewTimer(timeout)
			defer timer.Stop()
			select {
			case <-t.Gate.released:
			case <-timer.C:
				t.timedOut.Store(true)
				t.release.Do(func() { close(t.Gate.released) })
			}
		case <-t.Gate.released: // released before anyone entered
		}
	}()
	return t
}

// Release lets the stalled goroutine continue. Safe to call more than once
// and safe to race with the auto-release.
func (t *TimedGate) Release() {
	t.release.Do(func() { close(t.Gate.released) })
}

// TimedOut reports whether the auto-release fired because Release was not
// called within the timeout — the signal that the test lost track of its
// stalled goroutine.
func (t *TimedGate) TimedOut() bool { return t.timedOut.Load() }

// NthGate stalls the goroutine making the n-th visit to a point (counting
// across all goroutines) until released. Where Gate freezes the first
// arrival — an operation's very first traversal, often in a cold state —
// NthGate lets a test crash a victim mid-steady-state. It is reusable:
// Reset re-arms it for another round with fresh channels.
type NthGate struct {
	point Point

	// OnStall, when non-nil, is invoked by the n-th visitor itself,
	// immediately before it signals Entered and parks. Because it runs on
	// the stalling goroutine there is no scheduling gap between the
	// snapshot it takes and the park: the chaos engine uses it to sample
	// its group progress counter at the exact instant of the crash, which
	// a separate monitor goroutine cannot do (on a single-core race-mode
	// runner the monitor can be starved long enough for the peers to burn
	// through their whole post-crash budget before it wakes). Set it
	// before the gate is shared.
	OnStall func()

	mu        sync.Mutex
	remaining int
	entered   chan struct{}
	released  chan struct{}
}

// NewNthGate returns a gate that stalls the n-th visit (n >= 1) to point p;
// n == 1 behaves like NewGate.
func NewNthGate(p Point, n int) *NthGate {
	g := &NthGate{point: p}
	g.Reset(n)
	return g
}

// Reset re-arms the gate to stall the n-th visit from now. It must not be
// called while a goroutine is stalled at the gate (release it first).
func (g *NthGate) Reset(n int) {
	if n < 1 {
		panic("inject: NthGate needs n >= 1")
	}
	g.mu.Lock()
	g.remaining = n
	g.entered = make(chan struct{})
	g.released = make(chan struct{})
	g.mu.Unlock()
}

// At implements Tracer: the n-th visitor blocks until Release; every other
// visit falls through.
func (g *NthGate) At(p Point) {
	if p != g.point {
		return
	}
	g.mu.Lock()
	g.remaining--
	hit := g.remaining == 0
	entered, released := g.entered, g.released
	g.mu.Unlock()
	if hit {
		if g.OnStall != nil {
			g.OnStall()
		}
		close(entered)
		<-released
	}
}

// Entered is closed once the n-th visitor is stalled at the gate.
func (g *NthGate) Entered() <-chan struct{} { return g.entered }

// Release lets the stalled visitor continue. It must be called exactly once
// per arming (construction or Reset).
func (g *NthGate) Release() {
	g.mu.Lock()
	released := g.released
	g.mu.Unlock()
	close(released)
}

// Delay is the randomized delay adversary: at every pause point it flips a
// seeded coin and, on heads, stalls the caller for a bounded number of
// scheduler yields (with an occasional short sleep standing in for a
// preemption or page fault). Replaying the same seed replays the same
// decision sequence, so a failure found under the adversary can be re-run;
// the interleaving the decisions land on still depends on the scheduler,
// which is why the adversary is a stress mode rather than a deterministic
// replayer.
type Delay struct {
	state     Stream
	threshold uint64 // stall when draw < threshold
	maxYields uint64
}

// Stream is a splitmix64 stream safe for concurrent use: each Next is one
// atomic add on the shared state plus the output mix, so the draw
// *sequence* is a pure function of the seed and only its assignment to
// callers depends on scheduling. The embedded counter is the state: Store
// seeds the stream, Load reads its position.
type Stream struct{ atomic.Uint64 }

// Next returns the stream's next draw.
func (s *Stream) Next() uint64 {
	x := s.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewDelay returns a delay adversary that stalls with the given probability
// (clamped to [0,1]) for 1..maxYields scheduler yields per stall.
func NewDelay(seed int64, prob float64, maxYields int) *Delay {
	if prob < 0 {
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	if maxYields < 1 {
		maxYields = 1
	}
	d := &Delay{
		threshold: uint64(prob * float64(^uint64(0))),
		maxYields: uint64(maxYields),
	}
	d.state.Store(uint64(seed))
	return d
}

// At implements Tracer. It is safe for concurrent use: each visit takes one
// draw from the seeded Stream, so the decision *sequence* is a pure
// function of the seed.
func (d *Delay) At(Point) {
	x := d.state.Next()
	if x >= d.threshold {
		return
	}
	// One in 16 stalls is a "page fault": an actual sleep, long enough for
	// the runtime to schedule everyone else. The rest model preemption with
	// bounded yields.
	if x%16 == 0 {
		time.Sleep(time.Duration(50+x%200) * time.Microsecond)
		return
	}
	for n := 1 + x>>32%d.maxYields; n > 0; n-- {
		runtime.Gosched()
	}
}
