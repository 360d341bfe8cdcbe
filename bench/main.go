// Command bench is the repository's benchmark: it measures the queue
// service end to end, from in-process queue pairs to pipelined qserve
// traffic on loopback, and attributes the result to the layers queue →
// wire → server → loopback → client.
//
// Run it from the repository root:
//
//	bash bench/run.sh                                # all workloads, seed 1
//	bash bench/run.sh --workload rtt-1conn --seed 7  # one workload
//	bash bench/run.sh --trace 1                      # per-layer pass
//	bash bench/run.sh -layers                        # layer microbenchmarks only
//	bash bench/run.sh -json out.json                 # also write every metric to a file
//
// Every metric is printed by name with its unit; the last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics. A correctness violation or a failed call exits with status 1.
// See bench/README.md for the workloads, the metrics and how to compare
// two commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose result line was printed with correct
// false or a nonzero failed count.
var errIncorrect = errors.New("run failed its correctness checks")

// plan is how long a run measures; tests shorten it.
type plan struct {
	trials      int
	window      time.Duration // per end-to-end trial
	traceTrials int
	traceWindow time.Duration // per trial of the traced pass
}

// planFor spreads seconds of measurement over the constant trial counts.
func planFor(seconds int) plan {
	total := time.Duration(seconds) * time.Second
	return plan{
		trials:      trials,
		window:      total / trials,
		traceTrials: traceTrials,
		// Four trial kinds × traceTrials, plus the raw loopback loop that
		// runs for half a window in each untraced rtt-1conn trial.
		traceWindow: total / (4*traceTrials + traceTrials/2 + 1),
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		names   = fs.String("workload", "all", "comma-separated workloads to run, or all")
		seed    = fs.Int64("seed", 1, "seed for the enqueued values")
		seconds = fs.Int("seconds", 25, "seconds measured per workload (spread over the trials)")
		trace   = fs.Int("trace", 0, "1 runs the per-layer pass (layer microbenchmarks and traced trials) instead of the end-to-end trials")
		layers  = fs.Bool("layers", false, "run only the layer microbenchmarks")
		jsonOut = fs.String("json", "", "also write every metric, with quartiles and host facts, to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *seconds < 1:
		return fmt.Errorf("-seconds must be >= 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	sel, err := selectWorkloads(*names)
	if err != nil {
		return err
	}
	p := planFor(*seconds)

	var rep *report
	switch {
	case *trace == 1 || *layers:
		rep, err = runPerLayer(p, *seed, *trace == 1, stdout)
	default:
		rep, err = runEndToEnd(sel, p, *seed, stdout)
	}
	if rep == nil {
		return err
	}
	rep.Seed = *seed
	if *jsonOut != "" {
		if werr := rep.writeFile(*jsonOut); werr != nil && err == nil {
			err = werr
		}
	}
	line, merr := json.Marshal(rep.result(err == nil))
	if merr != nil {
		return merr
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		return err
	}
	if rep.Failed > 0 {
		return errIncorrect
	}
	return nil
}

func selectWorkloads(spec string) ([]workload, error) {
	if spec == "all" {
		return workloads, nil
	}
	var sel []workload
	for _, name := range strings.Split(spec, ",") {
		w, err := lookupWorkload(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		sel = append(sel, w)
	}
	return sel, nil
}

// runEndToEnd runs p.trials trials of every selected workload,
// round-robin, so drift on the host hits every workload alike. A trial's
// latency samples are dropped once its figures are taken, so every trial
// starts from the same heap and the garbage collector paces them alike.
func runEndToEnd(sel []workload, p plan, seed int64, stdout io.Writer) (*report, error) {
	rep := newReport(p)
	per := make([][]trialFigures, len(sel))
	for t := 0; t < p.trials; t++ {
		for i, w := range sel {
			r, err := runTrial(w, p.window, seed, t)
			rep.Attempted += r.calls
			rep.Failed += r.fails
			if err != nil {
				return rep, fmt.Errorf("trial %d: %w", t, err)
			}
			per[i] = append(per[i], trialFigures{figures(r), len(r.lat), r.calls, r.fails})
		}
	}
	for i, w := range sel {
		rep.addWorkload(w.name, per[i])
	}
	rep.print(stdout)
	return rep, nil
}
