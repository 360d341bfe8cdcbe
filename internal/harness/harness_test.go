package harness

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"msqueue/internal/algorithms"
	"msqueue/internal/metrics"
	"msqueue/internal/queue"
	"msqueue/internal/sharded"
	"msqueue/internal/workload"
)

func msInfo(t *testing.T) func(int) queue.Queue[int] {
	t.Helper()
	info, err := algorithms.Lookup("ms")
	if err != nil {
		t.Fatal(err)
	}
	return info.New
}

func TestRunValidation(t *testing.T) {
	newQ := msInfo(t)
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "missing New", cfg: Config{Processors: 1, ProcsPerProcessor: 1, Pairs: 1}},
		{name: "zero processors", cfg: Config{New: newQ, ProcsPerProcessor: 1, Pairs: 1}},
		{name: "zero multiprogramming", cfg: Config{New: newQ, Processors: 1, Pairs: 1}},
		{name: "zero pairs", cfg: Config{New: newQ, Processors: 1, ProcsPerProcessor: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.cfg); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestRunCompletesAllPairs(t *testing.T) {
	res, err := Run(Config{
		New:               msInfo(t),
		Processors:        3,
		ProcsPerProcessor: 2,
		Pairs:             5000,
		OtherWork:         -1, // disabled: keep the test fast
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processes != 6 {
		t.Fatalf("Processes = %d, want 6", res.Processes)
	}
	if res.Pairs != 5000 {
		t.Fatalf("Pairs = %d, want 5000", res.Pairs)
	}
	if res.Total <= 0 {
		t.Fatalf("Total = %v", res.Total)
	}
	// A linearizable queue under the strict enqueue-then-dequeue pattern
	// can never be observed empty (each process's own item guarantees
	// non-emptiness until its dequeue attempt completes).
	if res.EmptyDequeues != 0 {
		t.Fatalf("EmptyDequeues = %d, want 0 for a linearizable queue", res.EmptyDequeues)
	}
}

func TestRunMorePairsThanDivisible(t *testing.T) {
	// 7 pairs over 3 processes: 3+2+2.
	res, err := Run(Config{
		New:               msInfo(t),
		Processors:        3,
		ProcsPerProcessor: 1,
		Pairs:             7,
		OtherWork:         -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 7 {
		t.Fatalf("Pairs = %d", res.Pairs)
	}
}

func TestNetSubtractsOtherWork(t *testing.T) {
	spinner := workload.Calibrate(time.Microsecond)
	res, err := Run(Config{
		New:               msInfo(t),
		Processors:        2,
		ProcsPerProcessor: 1,
		Pairs:             1000,
		OtherWork:         time.Microsecond,
		Spinner:           spinner,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One processor's share: ceil(1000/2) pairs x 2 spins x 1µs = 1ms.
	if want := time.Millisecond; res.OtherWork != want {
		t.Fatalf("OtherWork = %v, want %v", res.OtherWork, want)
	}
	if res.Net != res.Total-res.OtherWork && res.Net != 0 {
		t.Fatalf("Net = %v, Total = %v, OtherWork = %v", res.Net, res.Total, res.OtherWork)
	}
}

func TestRunEveryPaperAlgorithm(t *testing.T) {
	for _, info := range algorithms.Paper() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			res, err := Run(Config{
				New:               info.New,
				Processors:        2,
				ProcsPerProcessor: 2,
				Pairs:             2000,
				OtherWork:         -1,
				Capacity:          4096,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Total <= 0 {
				t.Fatalf("Total = %v", res.Total)
			}
		})
	}
}

func TestFigureConfigMultiprogramming(t *testing.T) {
	tests := []struct {
		number int
		want   int
	}{
		{number: 3, want: 1},
		{number: 4, want: 2},
		{number: 5, want: 3},
	}
	for _, tt := range tests {
		cfg := FigureConfig{Number: tt.number}
		m, err := cfg.multiprogramming()
		if err != nil {
			t.Fatal(err)
		}
		if m != tt.want {
			t.Fatalf("figure %d: m = %d, want %d", tt.number, m, tt.want)
		}
	}
	if _, err := (&FigureConfig{Number: 7}).multiprogramming(); err == nil {
		t.Fatal("want error for unknown figure")
	}
	m, err := (&FigureConfig{Number: 7, ProcsPerProcessor: 4}).multiprogramming()
	if err != nil || m != 4 {
		t.Fatalf("override: m = %d, err = %v", m, err)
	}
}

func TestRunFigureSmall(t *testing.T) {
	var progressLines []string
	fig, err := RunFigure(FigureConfig{
		Number:        3,
		MaxProcessors: 2,
		Pairs:         500,
		OtherWork:     -1,
		Capacity:      2048,
		Progress: func(format string, args ...any) {
			progressLines = append(progressLines, format)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.XS) != 2 {
		t.Fatalf("XS = %v", fig.XS)
	}
	if len(fig.Series) != len(algorithms.Paper()) {
		t.Fatalf("got %d series, want %d", len(fig.Series), len(algorithms.Paper()))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %q has %d points", s.Label, len(s.Points))
		}
	}
	if len(progressLines) != 2*len(algorithms.Paper()) {
		t.Fatalf("progress called %d times", len(progressLines))
	}
	if !strings.Contains(fig.Title, "Figure 3") {
		t.Fatalf("title = %q", fig.Title)
	}
}

func TestRunFigureUnknownNumber(t *testing.T) {
	if _, err := RunFigure(FigureConfig{Number: 9}); err == nil {
		t.Fatal("want error")
	}
}

func TestRunRestoresGOMAXPROCS(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	_, err := Run(Config{
		New:               msInfo(t),
		Processors:        2,
		ProcsPerProcessor: 1,
		Pairs:             100,
		OtherWork:         -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if after := runtime.GOMAXPROCS(0); after != before {
		t.Fatalf("GOMAXPROCS = %d after Run, want %d restored", after, before)
	}
}

// TestRunReportsShardStats: when the queue under test is sharded, the
// result carries its per-shard counters; for every other algorithm the
// field stays nil.
func TestRunReportsShardStats(t *testing.T) {
	const pairs = 400
	res, err := Run(Config{
		New:               func(int) queue.Queue[int] { return sharded.New[int](4) },
		Processors:        2,
		ProcsPerProcessor: 1,
		Pairs:             pairs,
		OtherWork:         -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ShardStats) != 4 {
		t.Fatalf("got %d shard rows, want 4", len(res.ShardStats))
	}
	var enq, removed, occ int64
	for _, row := range res.ShardStats {
		enq += row.Enqueues
		removed += row.Dequeues + row.Steals
		occ += row.Occupancy
	}
	if enq != pairs {
		t.Fatalf("total shard enqueues = %d, want %d", enq, pairs)
	}
	if removed+res.EmptyDequeues < pairs || removed > pairs {
		t.Fatalf("removed = %d, empty dequeues = %d: conservation broken for %d pairs", removed, res.EmptyDequeues, pairs)
	}
	if occ != enq-removed {
		t.Fatalf("occupancy = %d, want enqueues-removed = %d", occ, enq-removed)
	}

	res, err = Run(Config{New: msInfo(t), Processors: 1, ProcsPerProcessor: 1, Pairs: 10, OtherWork: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardStats != nil {
		t.Fatalf("unsharded queue reported shard stats: %v", res.ShardStats)
	}
}

// TestPayloadEncoding: payloads must be globally unique and fit a 31-bit
// int whenever Pairs does, so the harness behaves identically on 32-bit
// platforms (the previous id<<32|i scheme truncated every process id to
// zero there, making all payloads collide across processes).
func TestPayloadEncoding(t *testing.T) {
	const procs = 7
	const itersPerProc = 1000
	seen := make(map[int]bool, procs*itersPerProc)
	maxPayload := 0
	for id := 0; id < procs; id++ {
		for i := 0; i < itersPerProc; i++ {
			v := payload(id, i, procs)
			if v < 0 {
				t.Fatalf("payload(%d,%d,%d) = %d, negative", id, i, procs, v)
			}
			if seen[v] {
				t.Fatalf("payload(%d,%d,%d) = %d collides", id, i, procs, v)
			}
			seen[v] = true
			if v > maxPayload {
				maxPayload = v
			}
		}
	}
	// The whole run's payloads stay below pairs+procs, well inside 31 bits
	// for any realistic Pairs (the paper's experiment uses one million).
	if limit := procs*itersPerProc + procs; maxPayload >= limit {
		t.Fatalf("max payload %d >= %d", maxPayload, limit)
	}
	if bits := 31; maxPayload>>(bits-1) != 0 && procs*itersPerProc < 1<<30 {
		t.Fatalf("payload %d does not fit %d bits", maxPayload, bits)
	}
}

// TestRunWithProbe: a probed run populates the Result's contention fields
// and latency histograms; the histogram counts must equal the number of
// operations the run performed.
func TestRunWithProbe(t *testing.T) {
	p := metrics.NewProbe()
	res, err := Run(Config{
		New:               msInfo(t),
		Processors:        2,
		ProcsPerProcessor: 2,
		Pairs:             2000,
		OtherWork:         -1,
		Probe:             p,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatalf("probed run returned nil Result.Metrics")
	}
	for op, l := range res.Metrics.Latency {
		if l.Count != int64(res.Pairs) {
			t.Fatalf("%v latency count = %d, want %d", metrics.Op(op), l.Count, res.Pairs)
		}
		if l.Quantile(0.5) <= 0 {
			t.Fatalf("%v p50 = %v, want > 0", metrics.Op(op), l.Quantile(0.5))
		}
	}
	if res.CASRetries != res.Metrics.Retries() {
		t.Fatalf("Result.CASRetries = %d, snapshot says %d", res.CASRetries, res.Metrics.Retries())
	}
	// An unprobed run must leave the fields zero.
	res2, err := Run(Config{New: msInfo(t), Processors: 1, ProcsPerProcessor: 1, Pairs: 10, OtherWork: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics != nil || res2.CASRetries != 0 || res2.LockSpins != 0 {
		t.Fatalf("unprobed run reported metrics: %+v", res2)
	}
}
