package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

// tablesWorkload regenerates the paper's evaluation, bench.All() (E1-E21),
// once per repetition on a pool of nproc workers — what lamstables does.
// The experiments fix their own seeds, so the run seed does not alter them.
type tablesWorkload struct {
	// render0 holds repetition 0's rendered tables; every later repetition
	// must reproduce them byte for byte.
	render0 []string
}

func newTables() *tablesWorkload { return &tablesWorkload{} }

func (w *tablesWorkload) setup() {
	bench.SetWorkers(runtime.GOMAXPROCS(0))
	bench.All()
}

func (w *tablesWorkload) finish() []string { return nil }

// check counts one op per experiment and fails those with a failing shape
// check or a table that differs from repetition 0.
func (w *tablesWorkload) check(r int, results []*bench.Result, res *repResult) {
	var text strings.Builder
	for i, e := range results {
		render := e.Render()
		text.WriteString(render)
		res.attempted++
		switch {
		case !e.Passed():
			res.failed++
			res.notes = append(res.notes, fmt.Sprintf("rep %d: %s has a failing shape check", r, e.ID))
		case r > 0 && i < len(w.render0) && render != w.render0[i]:
			res.failed++
			res.notes = append(res.notes, fmt.Sprintf("rep %d: %s differs from repetition 0", r, e.ID))
		}
		if r == 0 {
			w.render0 = append(w.render0, render)
		}
	}
	res.simText = text.String()
}

func (w *tablesWorkload) rep(r int) repResult {
	var res repResult
	var results []*bench.Result
	res.m = measure(func() { results = bench.All() })
	if r == 0 {
		w.render0 = w.render0[:0]
	}
	w.check(r, results, &res)
	return res
}

// layers runs the experiments one by one under a span each (bench.E<n>_s),
// and the whole set on one worker for bench.worker_speedup.
func (w *tablesWorkload) layers(tr *tracer, budget time.Duration) map[string]summary {
	out := map[string]summary{}
	deadline := time.Now().Add(budget)
	perExp := make([][]float64, numExperiments)
	var untraced, traced []float64
	for r := 0; r < 1 || time.Now().Before(deadline); r++ {
		start := time.Now()
		bench.All()
		untraced = append(untraced, time.Since(start).Seconds())
		start = time.Now()
		tr.root("rep", func() {
			for i := range perExp {
				id := fmt.Sprintf("E%d", i+1)
				t0 := time.Now()
				tr.span("bench."+id, func() { bench.ByID(id)() })
				perExp[i] = append(perExp[i], time.Since(t0).Seconds())
			}
		})
		traced = append(traced, time.Since(start).Seconds())
	}
	for i, xs := range perExp {
		out[fmt.Sprintf("bench.E%d_s", i+1)] = summarize(xs)
	}
	bench.SetWorkers(1)
	start := time.Now()
	bench.All()
	serial := time.Since(start).Seconds()
	bench.SetWorkers(runtime.GOMAXPROCS(0))
	u := summarize(untraced)
	out["bench.worker_speedup"] = exact(serial / u.Median)
	out["trace.overhead_share"] = exact((summarize(traced).Median - u.Median) / u.Median)
	return out
}
