package stats

import (
	"fmt"
	"strings"
)

// ChaosRow is one algorithm's progress-verification summary for
// ChaosTable: the reporting-side view of a chaos.Report (duplicated here
// so the formatting package does not depend on the adversary engine).
type ChaosRow struct {
	// Algorithm is the catalog name.
	Algorithm string
	// Declared is the progress guarantee the catalog declares ("blocking",
	// "non-blocking", ...): the claim that was verified.
	Declared string
	// Points is the number of pause points discovered and attacked.
	Points int
	// Completed counts crash-stop experiments the peers survived (the
	// operation quota was met with the victim halted); Stalled counts
	// experiments where the peers' joint progress froze; Unreached counts
	// points the concurrent workload never visited (vacuous).
	Completed int
	Stalled   int
	Unreached int
	// DelayOps is the pair count completed under the randomized delay
	// adversary (0 when the run was skipped).
	DelayOps int
	// Verdict is the outcome label: "verified", "skipped (...)", or
	// "FAIL (...)".
	Verdict string
}

// ChaosTable renders progress-verification rows as an aligned ASCII
// table — the `qcheck -chaos` report. Counts are right-aligned; the
// algorithm and verdict columns are left-aligned prose.
func ChaosTable(rows []ChaosRow) string {
	var b strings.Builder

	headers := []string{"algorithm", "declared", "points", "completed", "stalled", "unreached", "delay-pairs", "verdict"}

	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			r.Algorithm,
			r.Declared,
			fmt.Sprintf("%d", r.Points),
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Stalled),
			fmt.Sprintf("%d", r.Unreached),
			fmt.Sprintf("%d", r.DelayOps),
			r.Verdict,
		})
	}

	writeTable(&b, "llrrrrrl", headers, cells)
	return b.String()
}
