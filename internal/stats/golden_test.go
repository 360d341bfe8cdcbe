package stats

import (
	"testing"
	"time"
)

// TestTablesGolden pins every table in the package byte for byte. The
// rows hit each formatting edge: a series shorter than XS, a zero point,
// an unmeasured latency, a "µs" cell that is its column's widest (fmt pads
// by runes while widths count bytes), a zero-ops row, verdicts of
// different widths, a negative occupancy and an all-zero shard set.
func TestTablesGolden(t *testing.T) {
	fig := &Figure{
		Title:  "Figure G",
		XLabel: "procs",
		XS:     []int{1, 2, 12},
		Series: []Series{
			{Label: "single lock", Points: durs(10, 30, 1500)},
			{Label: "two-lock", Points: durs(12, 25)},
			{Label: "new non-blocking", Points: []time.Duration{11 * time.Millisecond, 0, 9 * time.Millisecond}},
		},
	}
	speedup, err := fig.SpeedupTable("single lock")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{
		"figure":  fig.Table(),
		"speedup": speedup,
		"contention": ContentionTable([]ContentionRow{
			{Algorithm: "new non-blocking", Ops: 2000, CASRetries: 150,
				EnqP50: 1500 * time.Nanosecond, EnqP99: 123456 * time.Nanosecond,
				DeqP50: 110 * time.Nanosecond, DeqP99: 12 * time.Millisecond},
			{Algorithm: "single lock", Ops: 2000, LockSpins: 4000},
			{Algorithm: "x"},
		}),
		"chaos": ChaosTable([]ChaosRow{
			{Algorithm: "ms", Declared: "non-blocking", Points: 14, Completed: 14, DelayOps: 20000, Verdict: "verified"},
			{Algorithm: "single-lock", Declared: "blocking", Verdict: "skipped (blocking: a halted lock holder stalls everyone)"},
			{Algorithm: "stone", Declared: "non-blocking", Points: 9, Completed: 8, Stalled: 1, Unreached: 2, Verdict: "FAIL (stalled at E9)"},
		}),
		"netchaos": NetChaosTable([]NetChaosRow{
			{Fault: "reset", Injected: 31, Acked: 4000, Consumed: 4002, Duplicates: 2, Resends: 5, Verdict: "conserved"},
			{Fault: "corrupt", Injected: 7, Acked: 3990, Consumed: 3987, Corrupt: 7, Verdict: "FAIL (3 acked values lost)"},
		}),
		"shard": ShardTable([]ShardRow{
			{Enqueues: 100, Dequeues: 101, Steals: 4, StealMisses: 2, Occupancy: -1},
			{Enqueues: 1900, Dequeues: 1800, Steals: 90, StealMisses: 11, Occupancy: 10},
		}),
		"shard-zero": ShardTable([]ShardRow{{}, {}}),
	}
	want := map[string]string{
		"figure": `Figure G
procs  single lock  two-lock  new non-blocking
-----  -----------  --------  ----------------
    1       0.010s    0.012s            0.011s
    2       0.030s    0.025s            0.000s
   12       1.500s         -            0.009s
`,
		"speedup": `speedup vs "single lock" (>1.0 = faster)
procs  two-lock  new non-blocking
-----  --------  ----------------
    1     0.83x             0.91x
    2     1.20x                 -
   12         -           166.67x
`,
		"contention": `algorithm          ops  cas-retries  /1k ops  lock-spins  /1k ops  enq p50     enq p99  deq p50  deq p99
----------------  ----  -----------  -------  ----------  -------  -------  ----------  -------  -------
new non-blocking  2000          150    75.00           0     0.00    1.5µs   123.456µs    110ns     12ms
single lock       2000            0     0.00        4000  2000.00        -           -        -        -
x                    0            0        -           0        -        -           -        -        -
`,
		"chaos": `algorithm    declared      points  completed  stalled  unreached  delay-pairs  verdict
-----------  ------------  ------  ---------  -------  ---------  -----------  --------------------------------------------------------
ms           non-blocking      14         14        0          0        20000  verified
single-lock  blocking           0          0        0          0            0  skipped (blocking: a halted lock holder stalls everyone)
stone        non-blocking       9          8        1          2            0  FAIL (stalled at E9)
`,
		"netchaos": `fault    injected  acked  consumed  dups  resends  corrupt-detected  verdict
-------  --------  -----  --------  ----  -------  ----------------  --------------------------
reset          31   4000      4002     2        5                 0  conserved
corrupt         7   3990      3987     0        0                 7  FAIL (3 acked values lost)
`,
		"shard": `shard  enqueues  dequeues  steals  steal-misses  occupancy  enq-share
-----  --------  --------  ------  ------------  ---------  ---------
    0       100       101       4             2         ~0       5.0%
    1      1900      1800      90            11         10      95.0%
total      2000      1901      94            13          9     100.0%
stolen: 4.7% of 1995 removed item(s)
~0: counters snapshotted mid-operation; occupancy cannot be negative at quiescence
`,
		"shard-zero": `shard  enqueues  dequeues  steals  steal-misses  occupancy  enq-share
-----  --------  --------  ------  ------------  ---------  ---------
    0         0         0       0             0          0          -
    1         0         0       0             0          0          -
total         0         0       0             0          0          -
`,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s table changed:\n got:\n%s\nwant:\n%s", name, got[name], w)
		}
	}
}
