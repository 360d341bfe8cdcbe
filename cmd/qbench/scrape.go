package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"msqueue/internal/telemetry"
)

// scrape fetches one Prometheus text exposition from a qserve admin plane
// and returns the parsed series. The client side of the exporter loop:
// qbench drives load over the wire protocol while reading the server's
// own view of that load over HTTP, so the two accounts can be compared.
// timeout bounds the whole request (0 = unbounded), so an admin plane that
// accepts the connection but never answers cannot wedge the load generator.
func scrape(url string, timeout time.Duration) (map[string]float64, error) {
	resp, err := (&http.Client{Timeout: timeout}).Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %s", url, resp.Status)
	}
	vals, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	return vals, nil
}

// printScrapeDelta renders what changed on the server across the load
// window: counter deltas and per-second rates for every series that
// moved, gauges as before → after. Counters that went backwards (a
// server restart between scrapes) are flagged rather than shown as
// garbage negatives.
func printScrapeDelta(w io.Writer, before, after map[string]float64, elapsed time.Duration) {
	names := make([]string, 0, len(after))
	for name := range after {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "server-side deltas over %v (via -scrape):\n", elapsed.Round(time.Millisecond))
	for _, name := range names {
		b, a := before[name], after[name]
		switch {
		case strings.HasSuffix(name, "_total"):
			d := a - b
			if d < 0 {
				fmt.Fprintf(w, "  %-40s counter went backwards (%g -> %g): server restarted?\n", name, b, a)
				continue
			}
			if d == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-40s +%-10.0f %.0f/s\n", name, d, d/elapsed.Seconds())
		case name == "server_backlog" || name == "server_open_conns" || name == "server_draining":
			if a != b {
				fmt.Fprintf(w, "  %-40s %g -> %g\n", name, b, a)
			}
		}
	}
	fmt.Fprintf(w, "  %-40s %g\n", "server_backlog (after)", after["server_backlog"])
}
