// Command qbench regenerates the paper's evaluation (section 4): Figures
// 3, 4 and 5 — net execution time for one million enqueue/dequeue pairs as
// a function of processor count, on dedicated and multiprogrammed systems —
// plus the inline observations and this reproduction's ablation
// experiments.
//
// Usage examples:
//
//	qbench -figure 3                         # the dedicated-system figure
//	qbench -figure all -pairs 100000         # all three figures, scaled down
//	qbench -figure 4 -algos ms,two-lock      # a subset of contenders
//	qbench -experiment valois-memory         # the free-list exhaustion run
//	qbench -figure 3 -csv fig3.csv           # machine-readable series
//	qbench -figure 3 -algos ms,sharded -shards 8   # relaxed sharded queue vs MS
//
// Absolute times differ from the 1996 SGI Challenge, and on machines with
// fewer cores than -procs the "dedicated" figure degrades into a
// multiprogrammed one (the tool prints the regime); the comparative shape —
// who wins, and where the crossovers fall — is the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"msqueue/internal/algorithms"
	"msqueue/internal/baseline"
	"msqueue/internal/cliutil"
	"msqueue/internal/harness"
	"msqueue/internal/inject"
	"msqueue/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("qbench", flag.ContinueOnError)
	var (
		figures    = fs.String("figure", "", `paper figure to regenerate: "3", "4", "5", a comma list, or "all"`)
		experiment = fs.String("experiment", "", `extra experiment: "valois-memory" (O-3) or "contention" (retry profile)`)
		procs      = fs.Int("procs", 12, "maximum processor count to sweep (the paper's machine had 12)")
		pairs      = fs.Int("pairs", 1_000_000, "total enqueue/dequeue pairs per data point")
		otherWork  = fs.Duration("otherwork", 6*time.Microsecond, `"other work" between operations (0 disables)`)
		algosFlag  = fs.String("algos", "", `comma-separated algorithm subset, or "all" (default: the paper's six); see -list`)
		repeats    = fs.Int("repeats", 1, "runs per point, keeping the minimum")
		capacity   = fs.Int("cap", harness.DefaultCapacity, "node capacity for bounded (tagged) queues")
		shards     = fs.Int("shards", 0, `shard count for the relaxed "sharded" algorithm (0 = GOMAXPROCS); requires "sharded" in -algos`)
		csvPath    = fs.String("csv", "", "also write the series as CSV to this file (one figure only)")
		metricsRep = fs.Bool("metrics", false, "run a probed pass and print a per-algorithm contention report (CAS retries, lock spins, op latency quantiles)")
		list       = fs.Bool("list", false, "list the available algorithms and exit")
		quiet      = fs.Bool("quiet", false, "suppress per-point progress lines")
		netAddr    = fs.String("net", "", "benchmark a running qserve at this address instead of in-process queues")
		dur        = fs.Duration("dur", 3*time.Second, "duration of the -net load run")
		dialTO     = fs.Duration("dialtimeout", 5*time.Second, "bound each -net dial attempt and each -scrape request (0 = unbounded)")
		scrapeURL  = fs.String("scrape", "", "with -net: a qserve /metrics URL to scrape before and after the run; prints the server-side counter deltas and rates")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Validate flag values and combinations up front, so a misconfigured
	// sweep fails with a clear message instead of panicking mid-run or
	// silently measuring the wrong thing.
	switch {
	case *procs < 1:
		return fmt.Errorf("-procs must be a positive processor count, got %d", *procs)
	case *pairs < 1:
		return fmt.Errorf("-pairs must be a positive pair count, got %d", *pairs)
	case *repeats < 1:
		return fmt.Errorf("-repeats must be >= 1, got %d", *repeats)
	case *capacity < 1:
		return fmt.Errorf("-cap must be a positive node capacity, got %d", *capacity)
	case *shards < 0:
		return fmt.Errorf("-shards must be >= 0 (0 selects GOMAXPROCS), got %d", *shards)
	case *shards > 0 && *experiment != "":
		return fmt.Errorf("-shards applies to figure sweeps, not to -experiment %q", *experiment)
	case *figures != "" && *experiment != "":
		return fmt.Errorf("-figure and -experiment are mutually exclusive; pass one")
	case *netAddr != "" && (*figures != "" || *experiment != "" || *metricsRep || *csvPath != "" || *algosFlag != "" || *shards != 0):
		return fmt.Errorf("-net benchmarks whatever algorithm the server at %s is running; it does not combine with -figure, -experiment, -metrics, -csv, -algos or -shards", *netAddr)
	case *dur <= 0:
		return fmt.Errorf("-dur must be positive, got %v", *dur)
	case *dialTO < 0:
		return fmt.Errorf("-dialtimeout must be >= 0, got %v", *dialTO)
	case *scrapeURL != "" && *netAddr == "":
		return fmt.Errorf("-scrape compares a server's /metrics across a -net run; it needs -net")
	case *metricsRep && *experiment != "":
		return fmt.Errorf("-metrics runs its own probed pass and does not combine with -experiment %q", *experiment)
	}

	if *otherWork == 0 {
		*otherWork = -1 // flag 0 means "no other work"; the harness uses negative for that
	}

	if *list {
		cliutil.FprintCatalog(os.Stdout)
		return nil
	}

	if *netAddr != "" {
		return netBench(*netAddr, *procs, *dur, *dialTO, *scrapeURL, *quiet)
	}

	if *experiment != "" {
		switch *experiment {
		case "valois-memory":
			return valoisMemoryExperiment(*capacity)
		case "contention":
			return contentionExperiment(*pairs)
		default:
			return fmt.Errorf("unknown experiment %q (have valois-memory, contention)", *experiment)
		}
	}

	if *figures == "" && !*metricsRep {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -figure, -experiment or -metrics")
	}

	algos, err := cliutil.Select(*algosFlag)
	if err != nil {
		return err
	}

	if *shards > 0 {
		// -shards only parameterizes the relaxed sharded algorithm; the
		// paper's contenders (and the other strict-FIFO ablations) have no
		// shard count, so requesting one for them is a misconfiguration.
		replaced := false
		for i, info := range algos {
			if info.Relaxed {
				algos[i] = algorithms.Sharded(*shards)
				replaced = true
			}
		}
		if !replaced {
			selected := *algosFlag
			if selected == "" {
				selected = "the paper's six contenders"
			}
			return fmt.Errorf(`-shards %d applies only to the relaxed "sharded" algorithm, but the selection (%s) is strict-FIFO only; add it with -algos sharded or -algos all`, *shards, selected)
		}
	}

	if *figures == "" {
		// Standalone -metrics: one probed pass, no figure sweep. Without an
		// explicit -algos the report wants metricsAlgos (the contenders whose
		// contention behaviour actually differs — tagged, hazard, epoch,
		// ring, sharded), not Select's paper-six default, so hand the choice
		// back to metricsReport.
		if strings.TrimSpace(*algosFlag) == "" {
			algos = nil
		}
		return metricsReport(algos, *procs, *pairs, *capacity, *otherWork, *quiet)
	}

	nums, err := parseFigures(*figures)
	if err != nil {
		return err
	}
	if *csvPath != "" && len(nums) != 1 {
		return fmt.Errorf("-csv supports exactly one figure, got %d", len(nums))
	}

	fmt.Printf("machine: %d CPU core(s); sweeps beyond that run multiprogrammed by necessity\n\n", runtime.NumCPU())

	for _, num := range nums {
		progress := func(format string, a ...any) {
			fmt.Printf("  "+format+"\n", a...)
		}
		if *quiet {
			progress = func(string, ...any) {}
		}
		fig, err := harness.RunFigure(harness.FigureConfig{
			Number:        num,
			MaxProcessors: *procs,
			Pairs:         *pairs,
			OtherWork:     *otherWork,
			Algorithms:    algos,
			Capacity:      *capacity,
			Repeats:       *repeats,
			Progress:      progress,
		})
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Println(fig.Table())
		if speedups, err := fig.SpeedupTable("single lock"); err == nil {
			fmt.Println(speedups)
		}
		printObservations(&fig, num)
		if *csvPath != "" {
			if err := os.WriteFile(*csvPath, []byte(fig.CSV()), 0o644); err != nil {
				return fmt.Errorf("write csv: %w", err)
			}
			fmt.Printf("series written to %s\n", *csvPath)
		}
		fmt.Println()
	}

	// For relaxed (sharded) contenders, one extra diagnostic run exposes
	// the per-shard traffic split the figures average away: affinity
	// balance, steal share, residual occupancy.
	for _, info := range algos {
		if !info.Relaxed {
			continue
		}
		res, err := harness.Run(harness.Config{
			New:               info.New,
			Processors:        *procs,
			ProcsPerProcessor: 1,
			Pairs:             *pairs,
			OtherWork:         -1,
			Capacity:          *capacity,
		})
		if err != nil {
			return err
		}
		fmt.Printf("per-shard counters for %q (p=%d, %d pairs, no other work; one diagnostic run):\n%s\n",
			info.Display, *procs, *pairs, stats.ShardTable(res.ShardStats))
	}

	if *metricsRep {
		// After the (unprobed) figure sweep, run the probed contention pass
		// over the same selection so the report lines up with the tables
		// above.
		return metricsReport(algos, *procs, *pairs, *capacity, *otherWork, *quiet)
	}
	return nil
}

func parseFigures(s string) ([]int, error) {
	if s == "all" {
		return []int{3, 4, 5}, nil
	}
	var nums []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 3 || n > 5 {
			return nil, fmt.Errorf("invalid figure %q (want 3, 4, 5 or all)", part)
		}
		nums = append(nums, n)
	}
	return nums, nil
}

// printObservations evaluates the paper's inline claims (O-1, O-2 in
// DESIGN.md) against the measured series.
func printObservations(fig *stats.Figure, num int) {
	if x := fig.Crossover("new two-lock", "single lock"); x > 0 {
		fmt.Printf("observation O-1: two-lock beats single lock from %d processors on (paper: >5, dedicated)\n", x)
	}
	msWinsFrom := 0
	for i := range fig.XS {
		if fig.Winner(i) == "new non-blocking" {
			msWinsFrom = fig.XS[i]
			break
		}
	}
	if msWinsFrom > 0 {
		fmt.Printf("observation O-2: MS non-blocking is the fastest algorithm from %d processors on (paper: >=3)\n", msWinsFrom)
	}
	if num >= 4 {
		fmt.Println("observation O-5: compare against figure 3 — blocking algorithms should degrade most under multiprogramming")
	}
}

// valoisMemoryExperiment reproduces section 1's report: "In experiments
// with a queue of maximum length 12 items, we ran out of memory several
// times during runs of ten million enqueues and dequeues, using a free
// list initialized with 64,000 nodes."
func valoisMemoryExperiment(capacity int) error {
	fmt.Printf("Valois memory experiment: queue of max length 1, free list of %d nodes, one stalled reader\n", capacity)
	q := baseline.NewValois(capacity)
	gate := inject.NewGate(baseline.PointValoisHoldingRef)
	q.SetTracer(gate)

	stalled := make(chan struct{})
	go func() {
		q.Dequeue()
		close(stalled)
	}()
	<-gate.Entered()
	fmt.Println("reader stalled while holding one counted reference")

	ops := 0
	report := capacity / 8
	if report == 0 {
		report = 1
	}
	for {
		if !q.TryEnqueue(uint64(ops)) {
			break
		}
		q.Dequeue()
		ops++
		if ops%report == 0 {
			fmt.Printf("  after %8d enqueue/dequeue pairs: %d/%d nodes pinned\n", ops, q.Arena().InUse(), capacity)
		}
	}
	fmt.Printf("free list EXHAUSTED after %d pairs on a queue that never held more than 1 item\n", ops)

	gate.Release()
	<-stalled
	fmt.Printf("stalled reader released: occupancy back to %d node(s)\n", q.Arena().InUse())
	fmt.Println("(the MS queue's occupancy stays at 2 nodes under the same scenario: its Tail never lags behind Head)")
	return nil
}
