package stats

import (
	"fmt"
	"strings"
	"time"

	"msqueue/internal/metrics"
)

// ContentionRow is one algorithm's contention summary for ContentionTable:
// the reporting-side view of a metrics.Snapshot. Build it with
// ContentionRowFromSnapshot so the retry aggregation and quantile math
// stay in internal/metrics (one source of truth shared with the telemetry
// exporter) instead of being re-derived by every reporting caller.
type ContentionRow struct {
	// Algorithm is the display label.
	Algorithm string
	// Ops is the number of operations the numbers are normalised against
	// (enqueue/dequeue pairs × 2 in the harness).
	Ops int64
	// CASRetries is the total number of failed CAS / revalidation retries.
	CASRetries int64
	// LockSpins is the total number of failed lock-acquisition attempts.
	LockSpins int64
	// EnqP50, EnqP99, DeqP50, DeqP99 are per-operation latency quantiles;
	// zero means "not measured" and renders as "-".
	EnqP50, EnqP99 time.Duration
	DeqP50, DeqP99 time.Duration
}

// ContentionRowFromSnapshot builds the row for one algorithm's probe
// snapshot: retries and spins via the snapshot's own aggregates, latency
// quantiles via the histogram's own bucket math. Every renderer of a
// snapshot (qbench -metrics, qserve's shutdown report) goes through this,
// so a change to the bucket geometry or the retry-site range cannot leave
// one report computing from stale assumptions.
func ContentionRowFromSnapshot(algorithm string, ops int64, snap *metrics.Snapshot) ContentionRow {
	enq, deq := snap.Latency[metrics.Enqueue], snap.Latency[metrics.Dequeue]
	return ContentionRow{
		Algorithm:  algorithm,
		Ops:        ops,
		CASRetries: snap.Retries(),
		LockSpins:  snap.LockSpins(),
		EnqP50:     enq.Quantile(0.50),
		EnqP99:     enq.Quantile(0.99),
		DeqP50:     deq.Quantile(0.50),
		DeqP99:     deq.Quantile(0.99),
	}
}

// ContentionTable renders per-algorithm contention rows as an aligned
// ASCII table: retries and spins per 1000 operations (the normalised
// at-a-glance numbers) next to the latency quantiles.
func ContentionTable(rows []ContentionRow) string {
	var b strings.Builder

	headers := []string{"algorithm", "ops", "cas-retries", "/1k ops", "lock-spins", "/1k ops",
		"enq p50", "enq p99", "deq p50", "deq p99"}

	perK := func(n, ops int64) string {
		if ops == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", 1000*float64(n)/float64(ops))
	}
	lat := func(d time.Duration) string {
		if d == 0 {
			return "-"
		}
		return d.String()
	}

	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			r.Algorithm,
			fmt.Sprintf("%d", r.Ops),
			fmt.Sprintf("%d", r.CASRetries),
			perK(r.CASRetries, r.Ops),
			fmt.Sprintf("%d", r.LockSpins),
			perK(r.LockSpins, r.Ops),
			lat(r.EnqP50),
			lat(r.EnqP99),
			lat(r.DeqP50),
			lat(r.DeqP99),
		})
	}

	writeTable(&b, "l", headers, cells)
	return b.String()
}
