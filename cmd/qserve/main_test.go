package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"msqueue/internal/client"
	"msqueue/internal/telemetry"
)

// testServer is one in-process run() with every channel a test needs.
type testServer struct {
	addr  string // queue listener
	admin string // admin listener ("" when -admin off)
	sigCh chan<- os.Signal
	quit  chan<- os.Signal
	out   *syncBuilder // live output; outCh carries the final copy
	outCh <-chan string
	errCh <-chan error
}

// serveInTest runs run() on an ephemeral port and returns the bound
// addresses, the signal channels that drive it, and channels carrying
// run's error and output.
func serveInTest(t *testing.T, extraArgs ...string) testServer {
	t.Helper()
	sigCh := make(chan os.Signal, 1)
	quitCh := make(chan os.Signal, 1)
	type addrs struct{ serve, admin net.Addr }
	addrCh := make(chan addrs, 1)
	outCh := make(chan string, 1)
	errCh := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	sb := new(syncBuilder)
	go func() {
		err := run(args, sb, sigCh, quitCh, func(a, adm net.Addr) { addrCh <- addrs{a, adm} })
		outCh <- sb.String()
		errCh <- err
	}()
	select {
	case a := <-addrCh:
		ts := testServer{addr: a.serve.String(), sigCh: sigCh, quit: quitCh, out: sb, outCh: outCh, errCh: errCh}
		if a.admin != nil {
			ts.admin = a.admin.String()
		}
		return ts
	case err := <-errCh:
		t.Fatalf("run exited before listening: %v", err)
		return testServer{}
	}
}

// syncBuilder is a strings.Builder safe for the concurrent Logf calls the
// server makes from connection goroutines.
type syncBuilder struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuilder) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuilder) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestServeSignalDrain runs the full lifecycle: serve, do work over a real
// client, SIGTERM, and check the drain summary and metrics report.
func TestServeSignalDrain(t *testing.T) {
	ts := serveInTest(t, "-algo", "ring", "-cap", "64", "-metrics", "-quiet")

	c, err := client.Dial(ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := c.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		if v, ok, err := c.Dequeue(); err != nil || !ok || v != i {
			t.Fatalf("dequeue %d = %d, %v, %v", i, v, ok, err)
		}
	}
	c.Close()

	ts.sigCh <- syscall.SIGTERM
	out := <-ts.outCh
	if err := <-ts.errCh; err != nil {
		t.Fatalf("run = %v\noutput:\n%s", err, out)
	}
	for _, want := range []string{
		"drained: enqueued=32 dequeued=32 backlog=0",
		"lost=0",
		"wire enq elements acked", // the wire-path metrics made the report
		"wire deq elements delivered",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestServeDrainDeliversBacklog: elements acked before SIGTERM must still
// be dequeuable during the drain window.
func TestServeDrainDeliversBacklog(t *testing.T) {
	ts := serveInTest(t, "-quiet")

	c, err := client.Dial(ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := c.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	ts.sigCh <- syscall.SIGTERM

	got := 0
	for got < 10 {
		v, ok, err := c.Dequeue()
		if err != nil {
			t.Fatalf("dequeue during drain after %d: %v", got, err)
		}
		if !ok {
			t.Fatalf("queue empty after %d of 10 acked elements", got)
		}
		if v != got {
			t.Fatalf("dequeue = %d, want %d", v, got)
		}
		got++
	}
	out := <-ts.outCh
	if err := <-ts.errCh; err != nil {
		t.Fatalf("run = %v\noutput:\n%s", err, out)
	}
	if !strings.Contains(out, "backlog=0") || !strings.Contains(out, "lost=0") {
		t.Errorf("drain summary should show empty backlog and no loss:\n%s", out)
	}
}

func TestListAndFlagValidation(t *testing.T) {
	var sb syncBuilder
	if err := run([]string{"-list"}, &sb, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "ms") || !strings.Contains(out, "ring") {
		t.Fatalf("-list output missing catalog entries:\n%s", out)
	}

	for _, args := range [][]string{
		{"-algo", "no-such-queue"},
		{"-algo", "all"},
		{"-cap", "-1"},
		{"-maxconns", "-2"},
		{"-hint", "0s"},
		{"-drain", "-1s"},
		{"-events", "0"},
		{"-stall", "-1s"},
		{"-admin", "127.0.0.1:99999"},
	} {
		if err := run(args, &sb, nil, nil, nil); err == nil {
			t.Errorf("run(%v) accepted invalid flags", args)
		}
	}
}

// TestAdminPlane drives the live observability end to end in-process: the
// exporter over HTTP while traffic flows, /healthz flipping to 503 during
// the drain, /debug/events carrying the connection trail, and the SIGQUIT
// flight-recorder dump on stdout.
func TestAdminPlane(t *testing.T) {
	ts := serveInTest(t, "-algo", "ring", "-cap", "64", "-admin", "127.0.0.1:0", "-drain", "1s", "-quiet")
	if ts.admin == "" {
		t.Fatal("no admin address despite -admin")
	}

	c, err := client.Dial(ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := c.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		if _, ok, err := c.Dequeue(); err != nil || !ok {
			t.Fatalf("dequeue %d: %v %v", i, ok, err)
		}
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + ts.admin + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s body: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	// The server counts a dequeue only once the flush that carried it has
	// returned, so the last reply can reach this client before the count
	// does: scrape until the totals settle or the deadline passes.
	var (
		code int
		body string
		vals map[string]float64
	)
	for settleBy := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		code, body = get("/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics = %d", code)
		}
		if vals, err = telemetry.ParseText(strings.NewReader(body)); err != nil {
			t.Fatalf("parse /metrics: %v", err)
		}
		if vals["queue_dequeues_total"] == 16 || time.Now().After(settleBy) {
			break
		}
	}
	if vals["queue_enqueues_total"] != 16 || vals["queue_dequeues_total"] != 16 {
		t.Fatalf("enq/deq totals = %v/%v, want 16/16",
			vals["queue_enqueues_total"], vals["queue_dequeues_total"])
	}
	if vals["server_backlog"] != 0 || vals["server_draining"] != 0 {
		t.Fatalf("backlog/draining = %v/%v, want 0/0", vals["server_backlog"], vals["server_draining"])
	}
	if vals[`queue_site_events_total{site="wire_enq"}`] != 16 {
		t.Fatalf("wire_enq site counter = %v, want 16 (admin must enable the probe)",
			vals[`queue_site_events_total{site="wire_enq"}`])
	}

	if code, body = get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body = get("/debug/events"); code != http.StatusOK || !strings.Contains(body, "conn-open") {
		t.Fatalf("/debug/events = %d, want conn-open in trail:\n%s", code, body)
	}

	// SIGQUIT: recorder dump on stdout, server keeps serving.
	ts.quit <- syscall.SIGQUIT
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(ts.out.String(), "flight recorder:") {
		if time.Now().After(deadline) {
			t.Fatal("SIGQUIT produced no flight recorder dump")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Enqueue(99); err != nil {
		t.Fatalf("enqueue after SIGQUIT: %v (SIGQUIT must not stop the server)", err)
	}
	c.Close()

	ts.sigCh <- syscall.SIGTERM
	out := <-ts.outCh
	if err := <-ts.errCh; err == nil {
		// One element (99) was acked with no consumer left; the drain times
		// out reporting it — which also exercises the drain-failure dump.
		t.Fatalf("expected drain timeout for the stranded element, got nil:\n%s", out)
	}
	for _, want := range []string{"flight recorder:", "conn-open", "drain-begin"} {
		if !strings.Contains(out, want) {
			t.Errorf("final output missing %q:\n%s", want, out)
		}
	}
}
