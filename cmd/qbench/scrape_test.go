package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestScrapeTimesOut: an admin plane that accepts the request but never
// answers must not hang the load generator; the -dialtimeout bound ends
// the scrape with an error.
func TestScrapeTimesOut(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) }) // runs first: lets srv.Close finish

	start := time.Now()
	if _, err := scrape(srv.URL, 100*time.Millisecond); err == nil {
		t.Fatal("scrape of a silent admin plane returned no error")
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("scrape took %v with a 100ms bound", took)
	}
}

func TestPrintScrapeDelta(t *testing.T) {
	tests := []struct {
		name          string
		before, after map[string]float64
		want, notWant []string
	}{
		{
			name:   "counter went backwards",
			before: map[string]float64{"server_enqueued_total": 500},
			after:  map[string]float64{"server_enqueued_total": 20},
			want:   []string{"server_enqueued_total", "counter went backwards (500 -> 20): server restarted?"},
		},
		{
			name:    "unchanged counter",
			before:  map[string]float64{"server_enqueued_total": 7},
			after:   map[string]float64{"server_enqueued_total": 7},
			notWant: []string{"server_enqueued_total"},
		},
		{
			name:   "moved counter",
			before: map[string]float64{"server_enqueued_total": 100},
			after:  map[string]float64{"server_enqueued_total": 300},
			want:   []string{"server_enqueued_total", "+200", "100/s"},
		},
		{
			name:   "changed gauge",
			before: map[string]float64{"server_open_conns": 1, "server_backlog": 3},
			after:  map[string]float64{"server_open_conns": 4, "server_backlog": 3},
			want:   []string{"server_open_conns", "1 -> 4"},
			// An unchanged gauge is not listed as a change.
			notWant: []string{"3 -> 3"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var b strings.Builder
			printScrapeDelta(&b, tt.before, tt.after, 2*time.Second)
			got := b.String()
			// The closing backlog line is always printed.
			for _, w := range append(tt.want, "server_backlog (after)") {
				if !strings.Contains(got, w) {
					t.Errorf("output missing %q:\n%s", w, got)
				}
			}
			for _, w := range tt.notWant {
				if strings.Contains(got, w) {
					t.Errorf("output contains %q:\n%s", w, got)
				}
			}
		})
	}
}
