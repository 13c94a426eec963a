package main

import (
	"fmt"
	"time"

	"repro/internal/lamsdlc"
	"repro/internal/shard"
	"repro/internal/sim"
)

// constWorkload runs the standard constellation scenario (shard.DefaultConfig
// over a Walker grid, 20 datagrams per flow) on the sharded engine. Build is
// timed apart (shard.build_s) and excluded from the measured phase.
type constWorkload struct {
	seed   uint64
	sats   int
	shards int
	// render0 is repetition 0's shard-count-invariant report, compared with
	// the one-shard run's in finish.
	render0 string
}

func newConstellation(seed uint64, shards int, scale float64) *constWorkload {
	sats := 1024
	if scale < 1 {
		sats = 64
	}
	return &constWorkload{seed: seed, sats: sats, shards: shards}
}

func (w *constWorkload) config(r, shards int) shard.Config {
	cfg := shard.DefaultConfig(shard.WalkerGrid(w.sats))
	cfg.DatagramsPerFlow = 20
	cfg.Shards = shards
	cfg.Seed = sim.DeriveSeed(w.seed, r)
	return cfg
}

func (w *constWorkload) setup() { w.run(0, w.shards, nil) }

// run builds and runs repetition r at the given shard count. From outside
// the engine only those two phases can be told apart, so a traced
// repetition carries two spans, shard.build and shard.run.
func (w *constWorkload) run(r, shards int, tr *tracer) (shard.Report, time.Duration, measured) {
	cfg := w.config(r, shards)
	var c *shard.Constellation
	start := time.Now()
	tr.span("shard.build", func() {
		var err error
		if c, err = shard.Build(cfg); err != nil {
			panic(err) // the configuration is the benchmark's own
		}
	})
	build := time.Since(start)
	var rep shard.Report
	var m measured
	tr.span("shard.run", func() { m = measure(func() { rep = c.Run() }) })
	return rep, build, m
}

func (w *constWorkload) rep(r int) repResult {
	rep, build, m := w.run(r, w.shards, nil)
	if r == 0 {
		w.render0 = rep.Render()
	}
	attempted := rep.Flows * w.config(r, w.shards).DatagramsPerFlow
	done := min(int(rep.Delivered), attempted)
	failed := attempted - done
	if rep.Delivered > rep.Offered {
		failed += int(rep.Delivered - rep.Offered) // duplicates
	}
	res := repResult{attempted: attempted, failed: failed, m: m, simText: rep.Render()}
	if failed > 0 {
		res.notes = append(res.notes, fmt.Sprintf("rep %d: offered=%d delivered=%d unroutable=%d of %d attempted",
			r, rep.Offered, rep.Delivered, rep.Unroutable, attempted))
	}
	ops := float64(max(done, 1))
	res.counts = map[string]float64{
		"sim.events_per_op":      float64(rep.Events) / ops,
		"channel.frames_per_op":  float64(rep.FramesSent) / ops,
		"lamsdlc.retx_per_op":    float64(rep.Retransmissions) / ops,
		"lamsdlc.ctrl_per_op":    float64(rep.ControlFrames) / ops,
		"shard.rounds":           float64(rep.Rounds),
		"shard.events_per_round": float64(rep.Events) / float64(rep.Rounds),
		"shard.window_us":        float64(rep.Window) / float64(sim.Microsecond),
		"node.frames_per_op":     float64(rep.FramesSent-rep.ControlFrames) / ops,
		"node.retx_per_op":       float64(rep.Retransmissions) / ops,
		"node.handovers":         float64(rep.Handover),
		"sim_makespan_s":         rep.Makespan.Seconds(),
	}
	res.timings = map[string]float64{
		"sim.ns_per_event": float64(m.dur.Nanoseconds()) / float64(rep.Events),
		"shard.build_s":    build.Seconds(),
	}
	return res
}

// finish checks the determinism contract: the report of repetition 0 must
// equal the one-shard run's byte for byte.
func (w *constWorkload) finish() []string {
	if w.shards == 1 {
		return nil
	}
	ref, _, _ := w.run(0, 1, nil)
	if got := ref.Render(); got != w.render0 {
		return []string{fmt.Sprintf("report at shards=%d differs from shards=1:\n%s--- vs ---\n%s", w.shards, w.render0, got)}
	}
	return nil
}

// layers alternates untraced and traced repetitions. On the two-shard
// workload every untraced repetition is also run on one shard, which yields
// shard.speedup from one process.
func (w *constWorkload) layers(tr *tracer, budget time.Duration) map[string]summary {
	out := map[string]summary{}
	deadline := time.Now().Add(budget)
	var untraced, traced, one []float64
	var events, adjacencies int
	var untracedNS float64
	for r := 0; r < 2 || time.Now().Before(deadline); r++ {
		rep, _, m := w.run(r, w.shards, nil)
		untraced = append(untraced, m.dur.Seconds())
		events, adjacencies = events+int(rep.Events), rep.Adjacencies
		untracedNS += float64(m.dur.Nanoseconds())
		if w.shards > 1 {
			_, _, m1 := w.run(r, 1, nil)
			one = append(one, m1.dur.Seconds())
		}
		tr.root("rep", func() {
			_, _, mt := w.run(r, w.shards, tr)
			traced = append(traced, mt.dur.Seconds())
		})
	}
	u, t := summarize(untraced), summarize(traced)
	out["trace.overhead_share"] = exact((t.Median - u.Median) / u.Median)
	if w.shards > 1 {
		out["shard.speedup"] = exact(summarize(one).Median / u.Median)
	}
	// The wheel alone, as this scenario loads it: the engine exposes no
	// queue statistics, so the hold model is set from the topology — each
	// adjacency carries two sessions, each with a checkpoint ticker and a
	// checkpoint-silence timer that every arriving checkpoint restarts
	// (one cancellation per two executed events), all one W_cp out.
	alone := aloneSim(holdModel{
		events: events / len(untraced), population: 4 * adjacencies, cancelled: 0.5,
		deltas: []sim.Duration{lamsdlc.Defaults(0).CheckpointInterval},
	})
	out["sim.alone_ns_per_event"] = exact(alone)
	out["sim.share"] = exact(alone / (untracedNS / float64(events)))
	return out
}
