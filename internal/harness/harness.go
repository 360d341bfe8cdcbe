// Package harness reproduces the paper's measurement methodology
// (section 4): processes repeatedly enqueue, do "other work", dequeue, and
// do "other work" again, for a fixed total number of enqueue/dequeue pairs;
// the reported quantity is *net* elapsed time — total time minus the time
// one processor needs for its share of the other work — so that the curves
// isolate the cost of the queue operations themselves.
//
// Processors are emulated with GOMAXPROCS: a run with p processors and m
// processes per processor starts p×m goroutines with GOMAXPROCS set to
// min(p, NumCPU). With m > 1 (or p > NumCPU) the Go scheduler multiplexes
// processes onto processors and its asynchronous preemption (~10 ms, like
// the paper's scheduling quantum) deschedules processes at arbitrary
// points — including inside critical sections, which is exactly the
// "inopportune preemption" whose cost the multiprogrammed figures expose.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"msqueue/internal/metrics"
	"msqueue/internal/queue"
	"msqueue/internal/sharded"
	"msqueue/internal/stats"
	"msqueue/internal/workload"
)

// Config describes one measurement run.
type Config struct {
	// New constructs the queue under test with capacity for at least cap
	// concurrently live items.
	New func(cap int) queue.Queue[int]
	// Processors is the emulated processor count p (the x axis of the
	// paper's figures).
	Processors int
	// ProcsPerProcessor is the multiprogramming level m: 1 for the
	// dedicated-system experiment (Figure 3), 2 and 3 for Figures 4 and 5.
	ProcsPerProcessor int
	// Pairs is the total number of enqueue/dequeue pairs across all
	// processes. The paper uses one million.
	Pairs int
	// OtherWork is the duration of each "other work" spin; the paper uses
	// approximately 6 µs. Zero selects workload.DefaultOtherWork; negative
	// disables other work entirely.
	OtherWork time.Duration
	// Spinner, when non-nil, supplies a pre-calibrated spinner so that
	// sweeps do not re-calibrate for every point.
	Spinner *workload.Spinner
	// Capacity overrides the node capacity passed to New. Zero selects
	// DefaultCapacity (the paper's free list held 64,000 nodes).
	Capacity int
	// Probe, when non-nil, collects contention metrics for the run: the
	// harness installs it on the queue under test (every algorithm in this
	// repository implements metrics.Instrumented) and times each operation
	// into its latency histograms. A nil Probe costs nothing — the worker
	// loop takes a branch-free fast path with no clock reads.
	Probe *metrics.Probe
}

// DefaultCapacity matches the paper's preallocated free list of 64,000
// nodes.
const DefaultCapacity = 64000

// Result reports one measurement run.
type Result struct {
	// Processes is the number of concurrent processes (p × m).
	Processes int
	// Pairs is the number of enqueue/dequeue pairs actually executed.
	Pairs int
	// Total is the wall-clock time for the whole run.
	Total time.Duration
	// OtherWork is the time one processor spends on its share of the other
	// work and loop overhead, as the paper defines the subtraction.
	OtherWork time.Duration
	// Net is max(0, Total−OtherWork): the paper's reported quantity.
	Net time.Duration
	// EmptyDequeues counts dequeue operations that found the queue empty.
	EmptyDequeues int64
	// ShardStats holds per-shard occupancy and steal counters when the
	// queue under test is sharded (nil otherwise).
	ShardStats []stats.ShardRow
	// CASRetries is the total number of failed CAS / revalidation retries
	// observed by the run's probe (0 when Config.Probe was nil).
	CASRetries int64
	// LockSpins is the total number of failed lock-acquisition attempts
	// (spin iterations) observed by the run's probe.
	LockSpins int64
	// Metrics is the probe's end-of-run snapshot — per-site counters and
	// per-op latency distributions — or nil when Config.Probe was nil.
	Metrics *metrics.Snapshot
}

// payload encodes (process id, iteration) into a queue value that is
// unique across the run: iteration-major, process-minor, i.e. i*procs+id,
// which enumerates 0..Pairs-1 (plus at most procs-1 slack from uneven
// splits). Unlike the id<<32|i scheme this fits a 31-bit int whenever
// Pairs does, so it is correct on 32-bit platforms, where Go's int is 32
// bits and id<<32 silently truncates every process id to zero.
func payload(id, i, procs int) int { return i*procs + id }

// Run executes one measurement with the given configuration.
func Run(cfg Config) (Result, error) {
	if cfg.New == nil {
		return Result{}, errors.New("harness: Config.New is required")
	}
	if cfg.Processors < 1 {
		return Result{}, fmt.Errorf("harness: Processors must be >= 1, got %d", cfg.Processors)
	}
	if cfg.ProcsPerProcessor < 1 {
		return Result{}, fmt.Errorf("harness: ProcsPerProcessor must be >= 1, got %d", cfg.ProcsPerProcessor)
	}
	if cfg.Pairs < 1 {
		return Result{}, fmt.Errorf("harness: Pairs must be >= 1, got %d", cfg.Pairs)
	}

	otherWork := cfg.OtherWork
	switch {
	case otherWork == 0:
		otherWork = workload.DefaultOtherWork
	case otherWork < 0:
		otherWork = 0
	}
	spinner := cfg.Spinner
	if spinner == nil {
		spinner = workload.Calibrate(otherWork)
	}
	capacity := cfg.Capacity
	if capacity == 0 {
		capacity = DefaultCapacity
	}

	procs := cfg.Processors * cfg.ProcsPerProcessor
	q := cfg.New(capacity)
	if cfg.Probe != nil {
		if in, ok := q.(metrics.Instrumented); ok {
			in.SetProbe(cfg.Probe)
		}
	}

	// Emulate p processors. On a machine with fewer cores the cap silently
	// lowers, turning the "dedicated" experiment into a multiprogrammed one;
	// callers report runtime.NumCPU so readers can tell which regime a
	// number came from.
	prev := runtime.GOMAXPROCS(min(cfg.Processors, runtime.NumCPU()))
	defer runtime.GOMAXPROCS(prev)

	var (
		start   = make(chan struct{})
		wg      sync.WaitGroup
		empties atomic.Int64
	)
	for proc := 0; proc < procs; proc++ {
		// Split the total pairs as the paper does: ⌊pairs/procs⌋ or
		// ⌈pairs/procs⌉ per process.
		iters := cfg.Pairs / procs
		if proc < cfg.Pairs%procs {
			iters++
		}
		if iters == 0 {
			continue
		}
		wg.Add(1)
		go func(id, iters int) {
			defer wg.Done()
			<-start
			myEmpties := int64(0)
			if cfg.Probe != nil {
				// Probed variant: identical loop body plus a clock read on
				// either side of each queue operation. Kept as a separate
				// loop so the common unprobed path pays neither the clock
				// reads nor a per-iteration branch.
				for i := 0; i < iters; i++ {
					t0 := time.Now()
					q.Enqueue(payload(id, i, procs))
					cfg.Probe.Observe(metrics.Enqueue, time.Since(t0))
					spinner.Spin()
					t0 = time.Now()
					_, ok := q.Dequeue()
					cfg.Probe.Observe(metrics.Dequeue, time.Since(t0))
					if !ok {
						myEmpties++
					}
					spinner.Spin()
				}
			} else {
				for i := 0; i < iters; i++ {
					q.Enqueue(payload(id, i, procs))
					spinner.Spin()
					if _, ok := q.Dequeue(); !ok {
						myEmpties++
					}
					spinner.Spin()
				}
			}
			empties.Add(myEmpties)
		}(proc, iters)
	}

	begin := time.Now()
	close(start)
	wg.Wait()
	total := time.Since(begin)

	// "We subtracted the time required for one processor to complete the
	// 'other work' from the total time": one processor executes its
	// 1/Processors share of the pairs, with two spins per pair.
	pairsPerProcessor := (cfg.Pairs + cfg.Processors - 1) / cfg.Processors
	owTotal := time.Duration(pairsPerProcessor) * 2 * otherWork
	net := total - owTotal
	if net < 0 {
		net = 0
	}

	res := Result{
		Processes:     procs,
		Pairs:         cfg.Pairs,
		Total:         total,
		OtherWork:     owTotal,
		Net:           net,
		EmptyDequeues: empties.Load(),
	}
	if cfg.Probe != nil {
		snap := cfg.Probe.Snapshot()
		res.Metrics = &snap
		res.CASRetries = snap.Retries()
		res.LockSpins = snap.LockSpins()
	}
	if s, ok := q.(interface{ Stats() []sharded.ShardStat }); ok {
		for _, st := range s.Stats() {
			res.ShardStats = append(res.ShardStats, stats.ShardRow{
				Enqueues:    st.Enqueues,
				Dequeues:    st.Dequeues,
				Steals:      st.Steals,
				StealMisses: st.StealMisses,
				Occupancy:   st.Occupancy(),
			})
		}
	}
	return res, nil
}
