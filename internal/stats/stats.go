// Package stats renders the reproduction's reports: the figure tables,
// speedups and CSV behind the paper's plots, and the contention, chaos,
// netchaos and shard tables. Every table goes through one writer,
// writeTable, so all of them share one column rule.
package stats

import (
	"fmt"
	"strings"
	"time"
)

// Series is one curve of a figure: a label plus one value per x position,
// mirroring the paper's "net elapsed time vs. processors" plots.
type Series struct {
	Label  string
	Points []time.Duration
}

// Figure is a reproduced figure: shared x values (processor counts) and one
// series per algorithm.
type Figure struct {
	Title  string
	XLabel string
	XS     []int
	Series []Series
}

// Table renders the figure as an aligned ASCII table, one row per x value
// and one column per series — the exact data behind the paper's plot.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)

	headers := make([]string, 0, len(f.Series)+1)
	headers = append(headers, f.XLabel)
	for _, s := range f.Series {
		headers = append(headers, s.Label)
	}

	rows := make([][]string, 0, len(f.XS))
	for i, x := range f.XS {
		row := make([]string, 0, len(f.Series)+1)
		row = append(row, fmt.Sprintf("%d", x))
		for _, s := range f.Series {
			if i < len(s.Points) {
				row = append(row, formatSeconds(s.Points[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	writeTable(&b, "", headers, rows)
	return b.String()
}

// CSV renders the figure as comma-separated values with a header row,
// suitable for re-plotting.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Label))
	}
	b.WriteByte('\n')
	for i, x := range f.XS {
		fmt.Fprintf(&b, "%d", x)
		for _, s := range f.Series {
			b.WriteByte(',')
			if i < len(s.Points) {
				fmt.Fprintf(&b, "%.6f", s.Points[i].Seconds())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Crossover returns the smallest x at which series a is strictly faster
// than series b and stays faster for every larger x, or 0 if none. It is
// used for observations such as "the two-lock queue outperforms the single
// lock when more than 5 processors are active".
func (f *Figure) Crossover(a, b string) int {
	sa, sb := f.find(a), f.find(b)
	if sa == nil || sb == nil {
		return 0
	}
	for i := range f.XS {
		if i >= len(sa.Points) || i >= len(sb.Points) {
			return 0
		}
		if sa.Points[i] < sb.Points[i] {
			stable := true
			for j := i; j < len(f.XS) && j < len(sa.Points) && j < len(sb.Points); j++ {
				if sa.Points[j] >= sb.Points[j] {
					stable = false
					break
				}
			}
			if stable {
				return f.XS[i]
			}
		}
	}
	return 0
}

// Winner returns the label of the fastest series at x index i, or "".
func (f *Figure) Winner(i int) string {
	best := ""
	var bestV time.Duration
	for _, s := range f.Series {
		if i >= len(s.Points) {
			continue
		}
		if best == "" || s.Points[i] < bestV {
			best, bestV = s.Label, s.Points[i]
		}
	}
	return best
}

func (f *Figure) find(label string) *Series {
	for i := range f.Series {
		if f.Series[i].Label == label {
			return &f.Series[i]
		}
	}
	return nil
}

func formatSeconds(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// writeTable writes headers, a dashed separator and rows as columns two
// spaces apart, each as wide as its widest cell. align holds one byte per
// column: 'l' left-aligns it, anything else (or a column past the end of
// align) right-aligns it. A left-aligned last column is not padded, so
// free-text verdicts leave no trailing blanks.
func writeTable(b *strings.Builder, align string, headers []string, rows [][]string) {
	lines := append([][]string{headers, nil}, rows...)
	widths := make([]int, len(headers))
	for _, row := range lines {
		for c, cell := range row {
			widths[c] = max(widths[c], len(cell))
		}
	}
	lines[1] = make([]string, len(headers))
	for c, w := range widths {
		lines[1][c] = strings.Repeat("-", w)
	}
	last := len(headers) - 1
	for _, row := range lines {
		for c, cell := range row {
			if c > 0 {
				b.WriteString("  ")
			}
			switch left := c < len(align) && align[c] == 'l'; {
			case left && c == last:
				b.WriteString(cell)
			case left:
				fmt.Fprintf(b, "%-*s", widths[c], cell)
			default:
				fmt.Fprintf(b, "%*s", widths[c], cell)
			}
		}
		b.WriteByte('\n')
	}
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// SpeedupTable renders the figure as ratios against the named baseline
// series: values above 1.0 mean "faster than the baseline by that factor".
// It is how the reproduction reports "who wins by roughly what factor"
// without tying the comparison to this machine's absolute speed.
func (f *Figure) SpeedupTable(baseline string) (string, error) {
	base := f.find(baseline)
	if base == nil {
		return "", fmt.Errorf("stats: no series %q in figure", baseline)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "speedup vs %q (>1.0 = faster)\n", baseline)

	headers := []string{f.XLabel}
	for _, s := range f.Series {
		if s.Label == baseline {
			continue
		}
		headers = append(headers, s.Label)
	}
	rows := make([][]string, 0, len(f.XS))
	for i, x := range f.XS {
		row := []string{fmt.Sprintf("%d", x)}
		for _, s := range f.Series {
			if s.Label == baseline {
				continue
			}
			if i >= len(s.Points) || i >= len(base.Points) || s.Points[i] == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.2fx", float64(base.Points[i])/float64(s.Points[i])))
		}
		rows = append(rows, row)
	}
	writeTable(&b, "", headers, rows)
	return b.String(), nil
}
