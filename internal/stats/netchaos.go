package stats

import (
	"fmt"
	"strings"
)

// NetChaosRow is one fault class's conservation summary for
// NetChaosTable: the reporting-side view of a `qcheck -netchaos` run
// (duplicated here so the formatting package does not depend on the
// injector engine).
type NetChaosRow struct {
	// Fault is the injected fault class ("reset", "torn-write",
	// "mixed", ...).
	Fault string
	// Injected is how many faults the injector fired during the run.
	Injected int64
	// Acked is the number of enqueue operations the clients saw
	// acknowledged; Consumed is how many values the clean drain
	// recovered.
	Acked    int64
	Consumed int64
	// Duplicates counts values recovered more than once — every one must
	// be attributable to a resend. Resends is the clients' at-least-once
	// window size (attempts retried after their frame possibly left).
	Duplicates int64
	Resends    int64
	// Corrupt counts wire-integrity failures detected (server checksum
	// teardowns plus client-side mirror).
	Corrupt int64
	// Verdict is the outcome label: "conserved" or "FAIL (...)".
	Verdict string
}

// NetChaosTable renders network fault-sweep rows as an aligned ASCII
// table — the `qcheck -netchaos` report. Counts are right-aligned; the
// fault and verdict columns are left-aligned prose.
func NetChaosTable(rows []NetChaosRow) string {
	var b strings.Builder

	headers := []string{"fault", "injected", "acked", "consumed", "dups", "resends", "corrupt-detected", "verdict"}

	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			r.Fault,
			fmt.Sprintf("%d", r.Injected),
			fmt.Sprintf("%d", r.Acked),
			fmt.Sprintf("%d", r.Consumed),
			fmt.Sprintf("%d", r.Duplicates),
			fmt.Sprintf("%d", r.Resends),
			fmt.Sprintf("%d", r.Corrupt),
			r.Verdict,
		})
	}

	writeTable(&b, "lrrrrrrl", headers, cells)
	return b.String()
}
