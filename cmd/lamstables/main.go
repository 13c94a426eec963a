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
	runID := flag.String("run", "", "run a single experiment by ID (E1..E21)")
	list := flag.Bool("list", false, "list experiments and exit")
	figures := flag.Bool("figures", false, "render each experiment's series as terminal charts")
	withMetrics := flag.Bool("metrics", false,
		"print the metrics snapshots experiments attach (protocol internals as JSON)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"simulation runs in flight, over all experiments (results are identical at any count)")
	flag.Parse()

	bench.SetWorkers(*workers)

	if *list {
		printList(os.Stdout)
		return
	}

	var results []*bench.Result
	if *runID != "" {
		fn := bench.ByID(*runID)
		if fn == nil {
			fmt.Fprintf(os.Stderr, "lamstables: unknown experiment %q (try -list)\n", *runID)
			os.Exit(2)
		}
		results = append(results, fn())
	} else {
		results = bench.All()
	}

	failed := 0
	for _, r := range results {
		fmt.Println(r.Render())
		if *figures && len(r.Series) > 0 {
			logX := r.ID == "E5" || r.ID == "E14" // BER sweeps span decades
			fmt.Println(stats.Chart{
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
				fmt.Printf("metrics %s %s\n", label, r.Snapshots[label].JSON())
			}
		}
		if !r.Passed() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "lamstables: %d experiment(s) with failing shape checks\n", failed)
		os.Exit(1)
	}
	fmt.Printf("all %d experiments passed their shape checks\n", len(results))
}

// printList prints the experiment IDs and titles, in run order.
func printList(w io.Writer) {
	for _, r := range bench.Titles() {
		fmt.Fprintf(w, "%-4s %s\n", r[0], r[1])
	}
}
