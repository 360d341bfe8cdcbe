package main

import (
	"fmt"
	"sync"

	"msqueue/internal/core"
	"msqueue/internal/metrics"
)

// contentionExperiment quantifies the retry behaviour behind the paper's
// liveness argument (section 3.3): an MS operation loops only when another
// process completed an operation in the meantime. It reports how many
// times the enqueue loop read Tail (line E5) and the dequeue loop read Head
// (line D2) per completed operation; values above 1.0 are retries caused by
// contention. Every extra pass of the tagged queue's loops is counted by
// its probe at exactly one site (E7, E9 or E12 for enqueue; D5, D9 or D12
// for dequeue), so reads per operation = 1 + those sites' sum / ops.
func contentionExperiment(pairs int) error {
	fmt.Println("MS queue retry profile (loop iterations per completed operation)")
	fmt.Println("procs  E5-reads/enqueue  D2-reads/dequeue")
	for _, procs := range []int{1, 2, 4, 8, 16} {
		q := core.NewMSTagged(4096)
		probe := metrics.NewProbe()
		q.SetProbe(probe)

		perProc := pairs / procs
		if perProc == 0 {
			perProc = 1
		}
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perProc; i++ {
					q.Enqueue(uint64(p*perProc + i))
					q.Dequeue()
				}
			}(p)
		}
		wg.Wait()

		ops := float64(procs * perProc)
		passes := func(sites ...metrics.Site) float64 {
			var n int64
			for _, s := range sites {
				n += probe.Site(s)
			}
			return 1 + float64(n)/ops
		}
		fmt.Printf("%5d  %16.3f  %16.3f\n",
			procs,
			passes(metrics.EnqueueInconsistent, metrics.EnqueueLinkCAS, metrics.EnqueueTailSwing),
			passes(metrics.DequeueInconsistent, metrics.DequeueTailSwing, metrics.DequeueHeadCAS))
	}
	fmt.Println("\n1.000 means no retries; the excess is the CAS-failure rate the")
	fmt.Println("backoff and helping paths absorb. Each retry implies another")
	fmt.Println("process completed an operation (the non-blocking argument).")
	return nil
}
