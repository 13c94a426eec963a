// Command lamstables regenerates the paper's evaluation: every experiment
// of the index in DESIGN.md §5 (tables and figures E1–E21), each printed as
// the rows/series the paper reports plus the pass/fail shape checks.
//
// Usage:
//
//	lamstables             # run everything, experiments overlapped
//	lamstables -run E4     # one experiment
//	lamstables -list       # list experiment IDs and titles
//	lamstables -workers 4  # at most 4 simulation runs in flight, in total
//
// The experiments of a full run start together and their simulation runs
// share one budget of -workers slots (DESIGN.md §6); the output is the same
// bytes at any -workers value, and each block equals what -run prints.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"repro/internal/bench"
	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is lamstables with its arguments and output streams; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lamstables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runID := fs.String("run", "", "run a single experiment by ID (E1..E21)")
	list := fs.Bool("list", false, "list experiments and exit")
	figures := fs.Bool("figures", false, "render each experiment's series as terminal charts")
	withMetrics := fs.Bool("metrics", false,
		"print the metrics snapshots experiments attach (protocol internals as JSON)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"simulation runs in flight over all experiments, and E19's shards (results are identical at any count)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	bench.SetWorkers(*workers)

	if *list {
		for _, r := range bench.Titles() {
			fmt.Fprintf(stdout, "%-4s %s\n", r[0], r[1])
		}
		return 0
	}

	var results []*bench.Result
	if *runID != "" {
		fn := bench.ByID(*runID)
		if fn == nil {
			fmt.Fprintf(stderr, "lamstables: unknown experiment %q (try -list)\n", *runID)
			return 2
		}
		results = append(results, fn())
	} else {
		results = bench.All()
	}

	failed := 0
	for _, r := range results {
		fmt.Fprintln(stdout, r.Render())
		if *figures && len(r.Series) > 0 {
			logX := r.ID == "E5" || r.ID == "E14" // BER sweeps span decades
			fmt.Fprintln(stdout, stats.Chart{
				Title:  fmt.Sprintf("figure %s: %s", r.ID, r.Title),
				Series: r.Series,
				LogX:   logX,
			}.Render())
		}
		if *withMetrics && len(r.Snapshots) > 0 {
			labels := make([]string, 0, len(r.Snapshots))
			for label := range r.Snapshots {
				labels = append(labels, label)
			}
			sort.Strings(labels)
			for _, label := range labels {
				fmt.Fprintf(stdout, "metrics %s %s\n", label, r.Snapshots[label].JSON())
			}
		}
		if !r.Passed() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "lamstables: %d experiment(s) with failing shape checks\n", failed)
		return 1
	}
	fmt.Fprintf(stdout, "all %d experiments passed their shape checks\n", len(results))
	return 0
}
