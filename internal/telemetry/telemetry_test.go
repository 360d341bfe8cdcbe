package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"msqueue/internal/metrics"
	"msqueue/internal/wire"
)

// --- flight recorder ---

func TestRecorderRetainsLastN(t *testing.T) {
	r := NewRecorder(8)
	if r.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", r.Cap())
	}
	for i := 0; i < 20; i++ {
		r.Record(EvRetry, uint64(i), int64(i), "full")
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(12 + i); ev.Seq != want {
			t.Fatalf("event %d Seq = %d, want %d (drop-oldest order)", i, ev.Seq, want)
		}
	}
	if r.Recorded() != 20 || r.Dropped() != 12 {
		t.Fatalf("Recorded=%d Dropped=%d, want 20, 12", r.Recorded(), r.Dropped())
	}
}

func TestRecorderConcurrentWriters(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	const writers, each = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(EvConnOpen, uint64(w), int64(i), "concurrent")
			}
		}(w)
	}
	// A concurrent reader: dumps must stay well-formed mid-storm.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				r.Events()
			}
		}
	}()
	wg.Wait()
	close(stop)

	if got := r.Recorded(); got != writers*each {
		t.Fatalf("Recorded = %d, want %d", got, writers*each)
	}
	evs := r.Events()
	if len(evs) != 64 {
		t.Fatalf("retained %d, want full ring of 64", len(evs))
	}
	seen := make(map[uint64]bool)
	for i, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate Seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
		if i > 0 && evs[i-1].Seq >= ev.Seq {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(EvConnOpen, 1, 0, "x") // must not panic
	if r.Events() != nil || r.Recorded() != 0 || r.Dropped() != 0 || r.Cap() != 0 {
		t.Fatal("nil recorder not inert")
	}
	var sb strings.Builder
	r.Dump(&sb)
	if !strings.Contains(sb.String(), "0 event(s) recorded") {
		t.Fatalf("nil dump: %q", sb.String())
	}
}

func TestRecorderDumpFormat(t *testing.T) {
	r := NewRecorder(16)
	r.Record(EvConnOpen, 1, 0, "127.0.0.1:9")
	r.Record(EvRetry, 1, int64(2*time.Millisecond), "full")
	r.Record(EvCorrupt, 2, 0, "wire: frame checksum mismatch")
	r.Record(EvDrainBegin, 0, 0, "")
	r.Record(EvDrainEnd, 0, 0, "")
	var sb strings.Builder
	r.Dump(&sb)
	out := sb.String()
	for _, want := range []string{
		"5 event(s) recorded, 5 retained",
		"conn-open", "127.0.0.1:9",
		"retry", "full (hint 2ms)",
		"corrupt", "checksum mismatch",
		"serverwide", "drain-begin", "drain-end", "residual backlog 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	seen := make(map[string]bool)
	for k := EventKind(0); int(k) < NumEventKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "EventKind(") {
			t.Errorf("kind %d has no label", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind label %q", s)
		}
		seen[s] = true
	}
}

// --- exporter / admin plane ---

// fakeServer is a canned ServerStats.
type fakeServer struct {
	c       wire.Counters
	backlog int64
	lost    uint64
}

func (f *fakeServer) Counters() wire.Counters { return f.c }
func (f *fakeServer) Backlog() int64          { return f.backlog }
func (f *fakeServer) Lost() uint64            { return f.lost }

func TestExporterExposition(t *testing.T) {
	p := metrics.NewProbe()
	p.Add(metrics.EnqueueLinkCAS, 4)
	p.Add(metrics.WireCorrupt, 2)
	p.Observe(metrics.Enqueue, 100*time.Microsecond)
	p.Observe(metrics.Enqueue, 200*time.Microsecond)
	rec := NewRecorder(16)
	rec.Record(EvConnOpen, 1, 0, "t")
	e := &Exporter{
		Probe:    p,
		Server:   &fakeServer{c: wire.Counters{Enqueued: 42, Dequeued: 40, Conns: 3}, backlog: 2},
		Recorder: rec,
		Start:    time.Now().Add(-time.Second),
	}

	srv := httptest.NewServer(e.Mux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	vals, err := ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	for key, want := range map[string]float64{
		`queue_site_events_total{site="enq_link_cas"}`:            4,
		`queue_site_events_total{site="wire_corrupt"}`:            2,
		`queue_retries_total`:                                     4,
		`queue_enqueues_total`:                                    42,
		`queue_dequeues_total`:                                    40,
		`server_open_conns`:                                       3,
		`server_backlog`:                                          2,
		`server_draining`:                                         0,
		`flight_recorder_events_total`:                            1,
		`queue_op_latency_seconds_count{op="enqueue"}`:            2,
		`queue_op_latency_seconds_bucket{op="enqueue",le="+Inf"}`: 2,
	} {
		if got, ok := vals[key]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	if _, ok := vals["go_goroutines"]; !ok {
		t.Error("runtime series missing")
	}
	if up := vals["server_uptime_seconds"]; up <= 0 {
		t.Errorf("uptime = %v, want > 0", up)
	}

	// Histogram cumulativeness: buckets must be non-decreasing in le order
	// and end at the count.
	var cum float64
	var sawBucket bool
	for b := 0; b < metrics.NumLatencyBuckets; b++ {
		key := `queue_op_latency_seconds_bucket{op="enqueue",le="` + formatLE(metrics.BucketUpperBound(b)) + `"}`
		if v, ok := vals[key]; ok {
			sawBucket = true
			if v < cum {
				t.Errorf("bucket %d cumulative count decreased: %v -> %v", b, cum, v)
			}
			cum = v
		}
	}
	if !sawBucket {
		t.Error("no finite le buckets exported for a populated histogram")
	}
}

func TestHealthzAndDebugEvents(t *testing.T) {
	fs := &fakeServer{c: wire.Counters{Enqueued: 10, Dequeued: 10, Conns: 1}}
	rec := NewRecorder(8)
	rec.Record(EvCorrupt, 7, 0, "checksum mismatch")
	e := &Exporter{Server: fs, Recorder: rec, Start: time.Now()}
	srv := httptest.NewServer(e.Mux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d: %s", resp.StatusCode, body)
	}
	for _, want := range []string{`"status": "ok"`, `"backlog": 0`, `"conns": 1`} {
		if !strings.Contains(body, want) {
			t.Errorf("healthz missing %s:\n%s", want, body)
		}
	}

	// Draining flips status and the HTTP code (load balancers key on it).
	fs.c.Draining = true
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, `"status": "draining"`) {
		t.Fatalf("draining healthz = %d %s, want 503 draining", resp.StatusCode, body)
	}

	resp, err = http.Get(srv.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	if !strings.Contains(body, "corrupt") || !strings.Contains(body, "checksum mismatch") {
		t.Fatalf("/debug/events missing the recorded event:\n%s", body)
	}

	resp, err = http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}
}

func TestParseTextErrors(t *testing.T) {
	if _, err := ParseText(strings.NewReader("metric_without_value\n")); err == nil {
		t.Error("line without value accepted")
	}
	if _, err := ParseText(strings.NewReader("m notanumber\n")); err == nil {
		t.Error("non-numeric value accepted")
	}
	vals, err := ParseText(strings.NewReader("# comment\n\nm 1.5\n"))
	if err != nil || vals["m"] != 1.5 {
		t.Errorf("ParseText = %v, %v", vals, err)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
