// Command qmodel runs the bounded model checker over the queue algorithms,
// mechanically re-establishing the paper's section 3:
//
//	qmodel -algo ms            # invariants + linearizability + non-blocking
//	qmodel -algo stone         # finds the published races automatically
//	qmodel -algo mc            # finds the blocking window automatically
//	qmodel -algo epoch         # epoch-reclamation pin/advance protocol
//	qmodel -algo ring          # the SCQ slot-cycle protocol
//	qmodel -algo all           # the full suite
//
// The scenarios, with their expected verdicts, are the rows of
// explore.Scenarios; -algo selects the rows of one algorithm. Each row is
// a small workload searched over every interleaving with a memo of visited
// states. A paths scenario keys the memo on the state plus the order of
// the history's endpoints, so every distinct complete history is checked
// for linearizability; a graph scenario keys it on the state alone and
// checks every reachable state. The printed count is of distinct memo
// keys. The exit code is 2 when any row misses its expected verdict.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"msqueue/internal/explore"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qmodel:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("qmodel", flag.ContinueOnError)
	algoFlag := fs.String("algo", "all", `algorithm to model-check: "ms", "two-lock", "valois", "stone", "mc", "epoch", "epoch-pinkeyed", "ring" or "all"`)
	verbose := fs.Bool("v", false, "print every violation found")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}

	var rows []explore.Scenario
	for _, sc := range explore.Scenarios {
		if *algoFlag == "all" || sc.Config.Algo.String() == *algoFlag {
			rows = append(rows, sc)
		}
	}
	if len(rows) == 0 {
		return 1, fmt.Errorf("unknown algorithm %q", *algoFlag)
	}

	exitCode := 0
	for _, sc := range rows {
		res, err := explore.Run(sc.Config)
		if err != nil {
			return 1, err
		}
		verdict, ok := explore.Classify(res, sc.Expect)
		if !ok {
			exitCode = 2
		}
		fmt.Fprintf(stdout, "%-7s %-30s %7d states, %7d events, parked=%d blocked=%d violations=%d — %s\n",
			verdict, sc.Name, res.Paths, res.Events, res.Parked, res.Blocked, len(res.Violations), sc.Summary)
		if *verbose {
			for _, v := range res.Violations {
				fmt.Fprintf(stdout, "        %v\n", v)
			}
		}
	}
	return exitCode, nil
}
