package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"msqueue/internal/client"
	"msqueue/internal/metrics"
)

// netBench is the -net load generator: workers clients, each on its own
// connection, drive enqueue/dequeue pairs against a running qserve for
// dur, then report throughput and client-observed latency quantiles plus
// the server's own counters. Before returning it drains the queue empty,
// so a qserve that is SIGTERMed afterwards (the CI smoke job) finishes
// its drain with backlog 0 instead of waiting for a consumer that never
// comes. With scrapeURL set, the server's /metrics is read before and
// after the run and the counter deltas are printed next to the client's
// numbers — the server's account of the same load.
func netBench(addr string, workers int, dur, dialTimeout time.Duration, scrapeURL string, quiet bool) error {
	probe := metrics.NewProbe()

	var scrapeBefore map[string]float64
	scrapeStart := time.Now()
	if scrapeURL != "" {
		var err error
		if scrapeBefore, err = scrape(scrapeURL, dialTimeout); err != nil {
			return err
		}
	}
	mkClient := func() *client.Client {
		return client.New(client.Config{Addr: addr, DialTimeout: dialTimeout})
	}
	var enqs, deqs, empties, dials atomic.Int64

	deadline := time.Now().Add(dur)
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := mkClient()
			defer c.Close()
			defer func() { dials.Add(int64(c.Dials())) }()
			v := w << 24
			for time.Now().Before(deadline) {
				start := time.Now()
				if err := c.Enqueue(v); err != nil {
					errCh <- fmt.Errorf("worker %d enqueue: %w", w, err)
					return
				}
				probe.Observe(metrics.Enqueue, time.Since(start))
				enqs.Add(1)
				v++

				start = time.Now()
				_, ok, err := c.Dequeue()
				if err != nil {
					errCh <- fmt.Errorf("worker %d dequeue: %w", w, err)
					return
				}
				probe.Observe(metrics.Dequeue, time.Since(start))
				if ok {
					deqs.Add(1)
				} else {
					// Another worker won the race for the element this
					// worker just enqueued; the residue is drained below.
					empties.Add(1)
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	elapsed := dur // workers stop on the shared deadline
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil {
			return err
		}
	}

	// Drain the residue (one outstanding element per empty dequeue) so the
	// server is left with an empty queue.
	c := mkClient()
	defer c.Close()
	drained := 0
	for {
		_, ok, err := c.Dequeue()
		if err != nil {
			return fmt.Errorf("drain dequeue: %w", err)
		}
		if !ok {
			break
		}
		drained++
		deqs.Add(1)
	}

	ops := enqs.Load() + deqs.Load()
	if ops == 0 {
		return fmt.Errorf("no operation completed against %s in %v", addr, dur)
	}
	// Conservation is exact only on unbroken connections: a reconnect's
	// at-least-once resend window can duplicate an enqueue (dequeues drain
	// more than were counted) or lose an in-flight VALUE frame. With
	// reconnects the mismatch is expected client behavior, not a server
	// bug, so it is reported rather than fatal.
	reconnects := dials.Load() - int64(workers)
	if enqs.Load() != deqs.Load() {
		if reconnects <= 0 {
			return fmt.Errorf("conservation failure: %d enqueues vs %d dequeues after drain", enqs.Load(), deqs.Load())
		}
		fmt.Printf("warning: %d enqueues vs %d dequeues after drain (%d reconnect(s); at-least-once resend window)\n",
			enqs.Load(), deqs.Load(), reconnects)
	}

	fmt.Printf("net benchmark: %s, %d workers, %v\n", addr, workers, dur)
	fmt.Printf("  %d enqueues, %d dequeues (%d empty polls, %d drained after the deadline)\n",
		enqs.Load(), deqs.Load(), empties.Load(), drained)
	fmt.Printf("  throughput: %.0f ops/s\n", float64(ops)/elapsed.Seconds())
	snap := probe.Snapshot()
	snap.WriteLatency(os.Stdout, "  ", "round-trip")
	if !quiet {
		counters, err := c.Stats()
		if err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		fmt.Printf("  server: enqueued=%d dequeued=%d empties=%d retries=%d conns=%d\n",
			counters.Enqueued, counters.Dequeued, counters.Empties, counters.Retries, counters.Conns)
	}
	if scrapeURL != "" {
		scrapeAfter, err := scrape(scrapeURL, dialTimeout)
		if err != nil {
			return err
		}
		printScrapeDelta(os.Stdout, scrapeBefore, scrapeAfter, time.Since(scrapeStart))
	}
	return nil
}
