package stats

import (
	"strings"
	"testing"
	"time"
)

func durs(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

func testFigure() *Figure {
	return &Figure{
		Title:  "Figure T",
		XLabel: "procs",
		XS:     []int{1, 2, 3},
		Series: []Series{
			{Label: "single lock", Points: durs(10, 30, 50)},
			{Label: "two-lock", Points: durs(12, 25, 30)},
			{Label: "ms", Points: durs(11, 20, 22)},
		},
	}
}

func TestFigureTable(t *testing.T) {
	tbl := testFigure().Table()
	for _, want := range []string{"Figure T", "procs", "single lock", "two-lock", "ms", "0.010s", "0.030s"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	lines := strings.Split(strings.TrimSpace(tbl), "\n")
	if len(lines) != 2+1+3 { // title + header + separator + 3 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), tbl)
	}
}

func TestFigureCSV(t *testing.T) {
	csv := testFigure().CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines: %q", len(lines), csv)
	}
	if lines[0] != "procs,single lock,two-lock,ms" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,0.010000,") {
		t.Fatalf("row 1 = %q", lines[1])
	}
}

func TestCSVEscaping(t *testing.T) {
	f := &Figure{
		XLabel: `weird,"label`,
		XS:     []int{1},
		Series: []Series{{Label: "a", Points: durs(1)}},
	}
	csv := f.CSV()
	if !strings.HasPrefix(csv, `"weird,""label",a`) {
		t.Fatalf("csv = %q", csv)
	}
}

func TestCrossover(t *testing.T) {
	f := &Figure{
		XS: []int{1, 2, 3, 4, 5, 6, 7},
		Series: []Series{
			{Label: "single", Points: durs(10, 11, 12, 13, 16, 20, 25)},
			{Label: "two", Points: durs(12, 13, 13, 14, 15, 16, 17)},
		},
	}
	// "two" becomes strictly faster from x=5 onwards.
	if got := f.Crossover("two", "single"); got != 5 {
		t.Fatalf("Crossover = %d, want 5", got)
	}
	// "single" never stays ahead from any point (it loses at the end).
	if got := f.Crossover("single", "two"); got != 0 {
		t.Fatalf("reverse Crossover = %d, want 0", got)
	}
	if got := f.Crossover("nope", "single"); got != 0 {
		t.Fatalf("unknown label Crossover = %d, want 0", got)
	}
}

func TestWinner(t *testing.T) {
	f := testFigure()
	if got := f.Winner(0); got != "single lock" {
		t.Fatalf("Winner(0) = %q", got)
	}
	if got := f.Winner(2); got != "ms" {
		t.Fatalf("Winner(2) = %q", got)
	}
	if got := (&Figure{}).Winner(0); got != "" {
		t.Fatalf("empty figure Winner = %q", got)
	}
}

func TestSpeedupTable(t *testing.T) {
	f := testFigure()
	tbl, err := f.SpeedupTable("single lock")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"speedup vs", "two-lock", "ms", "0.83x", "1.50x", "2.27x"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("speedup table missing %q:\n%s", want, tbl)
		}
	}
	if strings.Contains(tbl, "single lock  single lock") {
		t.Error("baseline column should be omitted")
	}
	if _, err := f.SpeedupTable("nope"); err == nil {
		t.Error("want error for unknown baseline")
	}
}

func TestSpeedupTableZeroPoint(t *testing.T) {
	f := &Figure{
		XLabel: "procs",
		XS:     []int{1},
		Series: []Series{
			{Label: "base", Points: durs(10)},
			{Label: "zero", Points: []time.Duration{0}},
		},
	}
	tbl, err := f.SpeedupTable("base")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl, "-") {
		t.Fatalf("zero point should render as '-':\n%s", tbl)
	}
}
