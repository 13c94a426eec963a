package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// readRecords loads the timed runs (-trace 0) of a result file, one JSON
// object per line, grouped by workload in file order. A file without any
// is an error.
func readRecords(path string) (map[string][]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload := map[string][]runRecord{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace == 0 {
			byWorkload[rec.Workload] = append(byWorkload[rec.Workload], rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(byWorkload) == 0 {
		return nil, fmt.Errorf("%s: no timed runs", path)
	}
	return byWorkload, nil
}

// judge compares the runs of one metric on one workload. worseBy is the
// relative change of the medians, positive when new is worse. The verdict
// follows the rules every later performance claim in this repository is
// held to:
//
//   - unresolved: the run-to-run spread (interquartile range over median, of
//     either side) is wider than the bound and the two sides' runs
//     interleave, so a change of the size of the bound could not be seen;
//   - worse: the median worsened by more than the bound;
//   - better: the medians differ by more than the old side's own spread and
//     new wins at least nine tenths of the runs paired in file order;
//   - same: anything else.
func judge(d metricDef, old, new []float64) (verdict string, worseBy float64) {
	so, sn := summarize(old), summarize(new)
	if so.Median == 0 {
		return verdictUnresolved, 0
	}
	sign := 1.0 // lower is better
	if d.Better == "higher" {
		sign = -1
	}
	worseBy = sign * (sn.Median - so.Median) / so.Median

	// interleave: neither side's runs all beat the other's.
	newBest, newWorst := sign*new[0], sign*new[0]
	for _, v := range new {
		newBest, newWorst = min(newBest, sign*v), max(newWorst, sign*v)
	}
	oldBest, oldWorst := sign*old[0], sign*old[0]
	for _, v := range old {
		oldBest, oldWorst = min(oldBest, sign*v), max(oldWorst, sign*v)
	}
	interleave := !(newWorst < oldBest || oldWorst < newBest)

	wins, pairs := 0, min(len(old), len(new))
	for i := 0; i < pairs; i++ {
		if sign*new[i] < sign*old[i] {
			wins++
		}
	}
	switch {
	case max(so.iqrShare(), sn.iqrShare()) > d.Bound && interleave:
		return verdictUnresolved, worseBy
	case worseBy > d.Bound:
		return verdictWorse, worseBy
	case -worseBy > so.iqrShare() && worseBy < 0 && wins*10 >= pairs*9:
		return verdictBetter, worseBy
	}
	return verdictSame, worseBy
}

// compareFiles prints one row per workload and end-to-end metric and
// returns the process exit code: 0 when nothing is worse or unresolved,
// 1 otherwise, 2 when the files cannot be compared.
func compareFiles(out io.Writer, oldPath, newPath string, force bool) int {
	old, err := readRecords(oldPath)
	var new map[string][]runRecord
	if err == nil {
		new, err = readRecords(newPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamsbench: %v\n", err)
		return 2
	}

	var ref *envStamp
	for _, side := range []map[string][]runRecord{old, new} {
		for _, recs := range side {
			for i := range recs {
				if ref == nil {
					ref = &recs[i].Env
				}
				if !recs[i].Env.sameMachine(*ref) && !force {
					fmt.Fprintf(os.Stderr, "lamsbench: environments differ (%+v vs %+v); host-time numbers from different machines do not compare — rerun both sides on one machine, or pass -force\n",
						*ref, recs[i].Env)
					return 2
				}
			}
		}
	}

	code := 0
	fmt.Fprintf(out, "%-20s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	for _, w := range workloadDefs {
		o, n := old[w.Name], new[w.Name]
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		for _, d := range endToEnd {
			ov, nv := values(o, d.Name), values(n, d.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			verdict, worseBy := judge(d, ov, nv)
			if verdict == verdictWorse || verdict == verdictUnresolved {
				code = 1
			}
			change := worseBy
			if d.Better == "higher" {
				change = -worseBy
			}
			fmt.Fprintf(out, "%-20s %-14s %14.6g %14.6g %+8.2f%% %6.0f%%  %s (n=%d vs %d, %s is better)\n",
				w.Name, d.Name, summarize(ov).Median, summarize(nv).Median,
				100*change, 100*d.Bound, verdict, len(ov), len(nv), d.Better)
		}
		if od, nd := o[0].SimDigest, n[0].SimDigest; od != nd && o[0].Seed == n[0].Seed {
			fmt.Fprintf(out, "%-20s sim_digest changed: %s -> %s (simulated results differ at seed %d)\n", w.Name, od, nd, o[0].Seed)
		}
	}
	return code
}

// values extracts one metric's per-run values in file order.
func values(recs []runRecord, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if s, ok := r.Metrics[name]; ok {
			xs = append(xs, s.Median)
		}
	}
	return xs
}
