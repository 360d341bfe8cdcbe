// Command qserve exposes any catalog queue over the wire protocol in
// internal/wire, turning the in-process algorithms into a small network
// queue service. The paper ends at the process boundary; qserve is this
// reproduction's "beyond the paper" layer (DESIGN.md section 12): the
// serving semantics — backpressure instead of unbounded buffering,
// graceful drain that never drops an acknowledged enqueue — are the same
// properties the in-process algorithms guarantee, restated for clients on
// the far side of a socket.
//
// Usage examples:
//
//	qserve                                   # MS queue on 127.0.0.1:7411
//	qserve -algo ring -cap 1024              # bounded: full yields RETRY
//	qserve -algo two-lock -maxconns 64
//	qserve -metrics                          # contention + wire report on shutdown
//	qserve -admin 127.0.0.1:7412             # /metrics, /healthz, /debug/pprof, /debug/events
//	qserve -list                             # the servable catalog
//
// On SIGINT/SIGTERM the server drains: new enqueues are refused with
// RETRY(draining), every already-acknowledged element is delivered to a
// dequeuer (bounded by -drain), and with -metrics a contention report is
// printed before exit.
//
// With -admin the same counters are live instead of post-mortem: a
// Prometheus-format /metrics endpoint, a /healthz JSON probe, pprof, and
// /debug/events — the flight recorder of the last -events connection-level
// transitions, also dumped to stdout on SIGQUIT and when the -stall
// watchdog sees connected-but-frozen traffic.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"msqueue/internal/cliutil"
	"msqueue/internal/metrics"
	"msqueue/internal/server"
	"msqueue/internal/telemetry"
)

func main() {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	if err := run(os.Args[1:], os.Stdout, sigCh, quitCh, nil); err != nil {
		fmt.Fprintln(os.Stderr, "qserve:", err)
		os.Exit(1)
	}
}

// run is main without the process-global parts: the signal channels and
// the ready hook are injected so tests can drive a full serve/drain cycle
// in-process. sigCh starts the graceful drain; quitCh (SIGQUIT in main)
// dumps the flight recorder to stdout without stopping the server — the
// classic "what is this process doing" poke. onReady receives the serve
// and admin listener addresses (admin nil when -admin is off).
func run(args []string, stdout io.Writer, sigCh <-chan os.Signal, quitCh <-chan os.Signal, onReady func(serve, admin net.Addr)) error {
	fs := flag.NewFlagSet("qserve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7411", "listen address (port 0 picks an ephemeral port)")
		algo       = fs.String("algo", "ms", "catalog algorithm to serve; see -list")
		capacity   = fs.Int("cap", 0, "capacity for bounded algorithms (0 = implementation default; full queues send RETRY)")
		maxConns   = fs.Int("maxconns", 0, "connection limit (0 = unlimited); over-limit dials are refused with ERR")
		retryHint  = fs.Duration("hint", server.DefaultRetryHint, "base backoff hint carried in RETRY frames")
		idle       = fs.Duration("idle", 0, "close connections idle longer than this (0 = never; frees -maxconns slots pinned by dead clients)")
		writeTO    = fs.Duration("writetimeout", 0, "bound each write/flush to a connection (0 = never; a peer that stops reading otherwise pins its connection and the drain)")
		drainTime  = fs.Duration("drain", 10*time.Second, "drain deadline on shutdown; backlog still undelivered after this is reported lost")
		metricsRep = fs.Bool("metrics", false, "serve with a contention probe and print the report on shutdown")
		adminAddr  = fs.String("admin", "", "admin listener address for /metrics, /healthz, /debug/pprof and /debug/events (empty = off)")
		events     = fs.Int("events", telemetry.DefaultRecorderSize, "flight recorder capacity, rounded up to a power of two")
		stall      = fs.Duration("stall", 0, "watchdog: dump the flight recorder when connections exist but no frame progressed for this long (0 = off)")
		list       = fs.Bool("list", false, "list the servable algorithms and exit")
		quiet      = fs.Bool("quiet", false, "suppress per-connection log lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		cliutil.FprintCatalog(stdout)
		return nil
	}
	switch {
	case *capacity < 0:
		return fmt.Errorf("-cap must be >= 0, got %d", *capacity)
	case *maxConns < 0:
		return fmt.Errorf("-maxconns must be >= 0, got %d", *maxConns)
	case *retryHint <= 0:
		return fmt.Errorf("-hint must be positive, got %v", *retryHint)
	case *drainTime <= 0:
		return fmt.Errorf("-drain must be positive, got %v", *drainTime)
	case *idle < 0:
		return fmt.Errorf("-idle must be >= 0, got %v", *idle)
	case *writeTO < 0:
		return fmt.Errorf("-writetimeout must be >= 0, got %v", *writeTO)
	case *events <= 0:
		return fmt.Errorf("-events must be positive, got %d", *events)
	case *stall < 0:
		return fmt.Errorf("-stall must be >= 0, got %v", *stall)
	}

	info, err := cliutil.SelectOne(*algo)
	if err != nil {
		return err
	}
	q := info.New(*capacity)

	// One probe observes both layers: the queue's own contention sites
	// (CAS retries, lock spins) and the server's wire-path sites. The
	// admin plane needs it live, -metrics needs it for the shutdown
	// report; either turns it on.
	var probe *metrics.Probe
	if *metricsRep || *adminAddr != "" {
		probe = metrics.NewProbe()
		if inst, ok := q.(metrics.Instrumented); ok {
			inst.SetProbe(probe)
		}
	}
	// The flight recorder is always on: its cost is per connection event,
	// not per frame, and a recorder that was off during the incident is
	// useless.
	rec := telemetry.NewRecorder(*events)

	logf := func(format string, a ...any) {
		fmt.Fprintf(stdout, "qserve: "+format+"\n", a...)
	}
	s := server.New(server.Config{
		Queue:        q,
		MaxConns:     *maxConns,
		RetryHint:    *retryHint,
		IdleTimeout:  *idle,
		WriteTimeout: *writeTO,
		Probe:        probe,
		Events:       rec,
		Logf: func(format string, a ...any) {
			if !*quiet {
				logf(format, a...)
			}
		},
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logf("serving %s (%s, %s) on %s", info.Name, info.Display, info.Progress, l.Addr())

	// The admin plane lives on its own listener so operational scrapes
	// and debug pokes never compete with queue traffic for accept slots
	// or MaxConns, and so it can be bound to localhost while the queue
	// port is public.
	var adminLn net.Listener
	if *adminAddr != "" {
		exporter := &telemetry.Exporter{Probe: probe, Server: s, Recorder: rec, Start: time.Now()}
		adminLn, err = net.Listen("tcp", *adminAddr)
		if err != nil {
			l.Close()
			return fmt.Errorf("admin listener: %w", err)
		}
		defer adminLn.Close()
		go http.Serve(adminLn, exporter.Mux())
		logf("admin plane on http://%s/ (metrics, healthz, debug/pprof, debug/events)", adminLn.Addr())
	}
	if onReady != nil {
		var adminA net.Addr
		if adminLn != nil {
			adminA = adminLn.Addr()
		}
		onReady(l.Addr(), adminA)
	}

	// SIGQUIT dumps the flight recorder and keeps serving; the watchdog
	// does the same when there are connections but no frame has
	// progressed for a full -stall window (one dump per episode, rearmed
	// by the next progress).
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		for {
			select {
			case <-stopWatch:
				return
			case sig, ok := <-quitCh:
				if !ok {
					return
				}
				logf("%v: dumping flight recorder", sig)
				rec.Dump(stdout)
			}
		}
	}()
	if *stall > 0 {
		go watchStalls(s, rec, stdout, logf, *stall, stopWatch)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()

	select {
	case sig := <-sigCh:
		logf("%v: draining (deadline %v)", sig, *drainTime)
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTime)
	defer cancel()
	drainErr := s.Drain(ctx)

	c := s.Counters()
	logf("drained: enqueued=%d dequeued=%d backlog=%d retries=%d lost=%d",
		c.Enqueued, c.Dequeued, c.Backlog(), c.Retries, s.Lost())
	if *metricsRep {
		snap := probe.Snapshot()
		fmt.Fprintf(stdout, "\n%s (%s):\n%s", info.Display, info.Name,
			snap.Report(int64(c.Enqueued+c.Dequeued)))
	}
	if drainErr != nil {
		// A failed drain is exactly the incident the recorder exists for:
		// dump it before exiting so the stuck consumers are identifiable.
		rec.Dump(stdout)
		return fmt.Errorf("drain: %w (undelivered backlog %d)", drainErr, s.Backlog())
	}
	return nil
}

// watchStalls dumps the flight recorder when the server has connections
// but no frame-level progress for a full window — the symptom of wedged
// clients or a wedged queue, and the moment the recorder's trail is most
// valuable. One dump per stall episode: the watchdog rearms only after
// progress resumes, so a long stall does not spam the log.
func watchStalls(s *server.Server, rec *telemetry.Recorder, stdout io.Writer,
	logf func(string, ...any), window time.Duration, stop <-chan struct{}) {
	progress := func() uint64 {
		c := s.Counters()
		return c.Enqueued + c.Dequeued + c.Empties + c.Retries
	}
	last := progress()
	dumped := false
	ticker := time.NewTicker(window)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		cur := progress()
		conns := s.Counters().Conns
		switch {
		case cur != last:
			last = cur
			dumped = false
		case conns > 0 && !dumped:
			logf("watchdog: %d connection(s) but no progress for %v, dumping flight recorder", conns, window)
			rec.Dump(stdout)
			dumped = true
		}
	}
}
