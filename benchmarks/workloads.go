package main

import (
	"fmt"
	"time"
)

// repResult is the outcome of one repetition. One op is one delivered
// genuine datagram (on tables: one regenerated experiment); a datagram lost,
// duplicated, delivered with a wrong payload or not delivered in time, or
// an experiment with a failing shape check or a table that differs from
// repetition 0, is a failed op.
type repResult struct {
	attempted, failed int
	// duplicated counts repeat deliveries the engine's contract allows
	// (LAMS-DLC on the link workloads); they are reported, not failed.
	duplicated int
	// m covers the measured phase only (constellation Build is excluded).
	m measured
	// counts are per-layer values that are exact for a fixed seed; the run
	// reports repetition 0's. timings are host-time values; the run reports
	// their median over repetitions.
	counts, timings map[string]float64
	// simText renders every simulated scalar of the repetition; repetition
	// 0's is hashed into sim_digest.
	simText string
	// notes describe this repetition's failed ops.
	notes []string
}

// scenario is one named workload: one set of inputs the benchmark runs.
// Work per repetition is fixed (never time-boxed), so counts repeat exactly;
// repetition r draws its inputs from sim.DeriveSeed(seed, r).
type scenario interface {
	// setup builds the world and runs one warm-up repetition, so pools,
	// arenas and the event pool are filled before anything is measured.
	setup()
	rep(r int) repResult
	// layers is the traced part of a run: it drives the instrumented stack
	// and single layers alone for about budget and returns the per-layer
	// metrics only tracing can give.
	layers(tr *tracer, budget time.Duration) map[string]summary
	// finish runs the end-of-run checks, releases everything the workload
	// holds and returns a description of each failed check.
	finish() []string
}

// newWorkload builds the named workload. scale shrinks the fixed work per
// repetition; everything but the self-tests runs at scale 1.
func newWorkload(name string, seed uint64, scale float64) (scenario, error) {
	switch name {
	case "link_bulk":
		return newLinkBulk(seed, scale), nil
	case "link_engines_burst":
		return newLinkEnginesBurst(seed, scale), nil
	case "const1024_shards1":
		return newConstellation(seed, 1, scale), nil
	case "const1024_shards2":
		return newConstellation(seed, 2, scale), nil
	case "tables":
		return newTables(), nil
	case "live_loopback":
		return newLiveLoopback(seed, scale), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale))
}
