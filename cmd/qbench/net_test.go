package main

import (
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msqueue/internal/core"
	"msqueue/internal/server"
	"msqueue/internal/telemetry"
)

func startQserve(t *testing.T) (string, *server.Server) {
	t.Helper()
	s := server.New(server.Config{Queue: core.NewMS[int]()})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return l.Addr().String(), s
}

// TestNetBench runs the load generator against an in-process server; the
// generator itself asserts conservation and nonzero throughput.
func TestNetBench(t *testing.T) {
	addr, _ := startQserve(t)
	if err := netBench(addr, 2, 150*time.Millisecond, time.Second, "", false); err != nil {
		t.Fatalf("netBench: %v", err)
	}
}

// TestNetBenchWithScrape points -scrape at an admin plane over the same
// server and checks both scrapes succeed (the delta print is cosmetic;
// a scrape failure is an error).
func TestNetBenchWithScrape(t *testing.T) {
	addr, s := startQserve(t)
	e := &telemetry.Exporter{Server: s, Start: time.Now()}
	admin := httptest.NewServer(e.Mux())
	defer admin.Close()
	if err := netBench(addr, 2, 100*time.Millisecond, time.Second, admin.URL+"/metrics", true); err != nil {
		t.Fatalf("netBench with scrape: %v", err)
	}
	if _, err := scrape(admin.URL+"/nosuch", time.Second); err == nil {
		t.Fatal("scrape of a 404 endpoint should fail")
	}
}

func TestNetBenchViaRun(t *testing.T) {
	addr, _ := startQserve(t)
	if err := run([]string{"-net", addr, "-procs", "2", "-dur", "100ms", "-quiet"}); err != nil {
		t.Fatalf("run -net: %v", err)
	}
}

func TestNetFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-net", "127.0.0.1:1", "-figure", "3"},
		{"-net", "127.0.0.1:1", "-experiment", "contention"},
		{"-net", "127.0.0.1:1", "-metrics"},
		{"-net", "127.0.0.1:1", "-algos", "ms"},
		{"-net", "127.0.0.1:1", "-csv", "x.csv"},
		{"-net", "127.0.0.1:1", "-shards", "2"},
		{"-net", "127.0.0.1:1", "-dur", "0s"},
		{"-scrape", "http://127.0.0.1:1/metrics"},
	} {
		err := run(args)
		if err == nil {
			t.Errorf("run(%v) accepted conflicting flags", args)
			continue
		}
		if strings.Contains(err.Error(), "connect") {
			t.Errorf("run(%v) tried to dial before validating flags: %v", args, err)
		}
	}
}
