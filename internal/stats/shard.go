package stats

import (
	"fmt"
	"strings"
)

// ShardRow is one shard's operation counters for ShardTable: the
// reporting-side mirror of internal/sharded's per-shard statistics
// (duplicated here so the data structure does not depend on the
// formatting package).
type ShardRow struct {
	// Enqueues is the number of items enqueued into the shard.
	Enqueues int64
	// Dequeues is the number of items removed by consumers homed on the
	// shard (affinity hits).
	Dequeues int64
	// Steals is the number of items removed by consumers homed elsewhere.
	Steals int64
	// StealMisses is the number of failed steal probes (shard observed
	// empty by a thief).
	StealMisses int64
	// Occupancy is the number of items resident when the snapshot was
	// taken.
	Occupancy int64
}

// ShardTable renders per-shard counters as an aligned ASCII table with a
// totals row and each shard's share of the enqueue traffic — the
// at-a-glance view of how evenly the affinity policy spread load and how
// much of the drain happened by stealing.
func ShardTable(rows []ShardRow) string {
	var b strings.Builder

	headers := []string{"shard", "enqueues", "dequeues", "steals", "steal-misses", "occupancy", "enq-share"}
	var total ShardRow
	for _, r := range rows {
		total.Enqueues += r.Enqueues
		total.Dequeues += r.Dequeues
		total.Steals += r.Steals
		total.StealMisses += r.StealMisses
		total.Occupancy += r.Occupancy
	}
	share := func(r ShardRow) string {
		if total.Enqueues == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(r.Enqueues)/float64(total.Enqueues))
	}
	// Occupancy is derived from counters read individually while operations
	// may be in flight, so a busy shard can transiently appear to hold a
	// negative number of items (a remove was counted whose insert was not
	// yet). Render those as "~0" — the physically meaningful value — and
	// note why.
	sawNegative := false
	occupancy := func(n int64) string {
		if n < 0 {
			sawNegative = true
			return "~0"
		}
		return fmt.Sprintf("%d", n)
	}

	cells := make([][]string, 0, len(rows)+1)
	for i, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", r.Enqueues),
			fmt.Sprintf("%d", r.Dequeues),
			fmt.Sprintf("%d", r.Steals),
			fmt.Sprintf("%d", r.StealMisses),
			occupancy(r.Occupancy),
			share(r),
		})
	}
	cells = append(cells, []string{
		"total",
		fmt.Sprintf("%d", total.Enqueues),
		fmt.Sprintf("%d", total.Dequeues),
		fmt.Sprintf("%d", total.Steals),
		fmt.Sprintf("%d", total.StealMisses),
		occupancy(total.Occupancy),
		share(total),
	})

	writeTable(&b, "", headers, cells)

	if removed := total.Dequeues + total.Steals; removed > 0 {
		fmt.Fprintf(&b, "stolen: %.1f%% of %d removed item(s)\n",
			100*float64(total.Steals)/float64(removed), removed)
	}
	if sawNegative {
		b.WriteString("~0: counters snapshotted mid-operation; occupancy cannot be negative at quiescence\n")
	}
	return b.String()
}
