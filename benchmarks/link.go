package main

import (
	"fmt"
	"time"

	"repro/internal/arq"
	"repro/internal/bench"
	"repro/internal/channel"
	"repro/internal/hdlc"
	"repro/internal/lamsdlc"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/ssarq"
	"repro/internal/workload"
)

// linkEngine is one ARQ engine of a link workload: its registry name and
// the layer prefix its per-layer metrics carry.
type linkEngine struct {
	proto bench.Protocol
	layer string // "lamsdlc", "hdlc", "ssarq"
	split string // metric prefix of the per-engine split: "lamsdlc.", "hdlc.sr_", ...
}

var (
	engLAMS  = linkEngine{bench.LAMS, "lamsdlc", "lamsdlc."}
	engSR    = linkEngine{bench.SRHDLC, "hdlc", "hdlc.sr_"}
	engGBN   = linkEngine{bench.GBNHDLC, "hdlc", "hdlc.gbn_"}
	engSSARQ = linkEngine{"ssarq", "ssarq", "ssarq."}
)

// A LAMS-DLC duplicate is not a failed op: the engine's zero-loss completion
// (DESIGN.md) retransmits, rather than releases, frames whose C_depth
// covering checkpoints were all lost, and leaves the duplicates to the
// destination resequencer (§2.3). Under Gilbert-Elliott bursts that happens
// about once in twenty repetitions; the run reports ops_duplicated. The
// in-sequence engines (HDLC, SS-ARQ) promise exactly-once, so there a
// duplicate is a failure.

// linkWorkload runs bench.Run over the paper's canonical link
// (bench.Base(): 300 Mb/s, 4,000 km, W_cp 10 ms, C_depth 3) for each of its
// engines in turn, n saturating 1 KiB datagrams per engine per repetition.
type linkWorkload struct {
	seed           uint64
	n              int
	engines        []linkEngine
	imodel, cmodel string
}

func newLinkBulk(seed uint64, scale float64) *linkWorkload {
	return &linkWorkload{seed: seed, n: scaled(100_000, scale), engines: []linkEngine{engLAMS},
		imodel: "fixed:p=0.05", cmodel: "fixed:p=0.0125"}
}

func newLinkEnginesBurst(seed uint64, scale float64) *linkWorkload {
	const ge = "ge:gber=1e-7,bber=1e-4,mgood=50ms,mbad=5ms"
	return &linkWorkload{seed: seed, n: scaled(50_000, scale),
		engines: []linkEngine{engLAMS, engSR, engGBN, engSSARQ}, imodel: ge, cmodel: ge}
}

func (w *linkWorkload) config(e linkEngine, r int) bench.RunConfig {
	c := bench.Base()
	c.Protocol = e.proto
	c.N = w.n
	c.IModelSpec, c.CModelSpec = w.imodel, w.cmodel
	c.Seed = sim.DeriveSeed(w.seed, r)
	return c
}

func (w *linkWorkload) setup() { w.rep(0) }

func (w *linkWorkload) finish() []string { return nil }

func (w *linkWorkload) rep(r int) repResult {
	res := repResult{counts: map[string]float64{}, timings: map[string]float64{}}
	var events, cancelled, frames, corrupted uint64
	var queueNS, queuePeak, makespan float64
	var queueN uint64
	for _, e := range w.engines {
		cfg := w.config(e, r)
		var out bench.RunResult
		m := measure(func() { out = bench.Run(cfg) })
		res.m.add(m)

		done := w.n - out.Lost
		res.attempted += w.n
		failed := out.Lost + int(out.Failures)
		if e != engLAMS {
			failed += int(out.Duplicates)
		}
		if failed > 0 {
			res.failed += failed
			res.notes = append(res.notes, fmt.Sprintf("rep %d %s: lost=%d duplicates=%d failures=%d",
				r, e.proto, out.Lost, out.Duplicates, out.Failures))
		}
		res.duplicated += int(out.Duplicates)
		res.simText += fmt.Sprintf("%s %+v\n", e.proto, out)

		snap := out.Snapshot
		events += snap.Counter("sim_events_executed_total")
		cancelled += snap.Counter("sim_events_cancelled_total")
		frames += snap.Counter("channel_frames_sent_total")
		corrupted += snap.Counter("channel_frames_corrupted_total")
		if h, ok := snap.Histograms["channel_wire_queue_ns"]; ok {
			queueNS += h.Sum
			queueN += h.Count
		}
		queuePeak = max(queuePeak, snap.Gauges["sim_event_queue_peak"])
		makespan += out.Elapsed.Seconds()

		res.timings[e.split+"ops_per_s"] = float64(done) / m.dur.Seconds()
		res.counts[e.split+"retx_per_op"] = float64(out.Retransmissions) / float64(done)
		res.counts[e.split+"sim_efficiency"] = out.Efficiency
		if e == engLAMS {
			res.counts["lamsdlc.ctrl_per_op"] = float64(out.ControlSent) / float64(done)
			res.counts["lamsdlc.recoveries"] = float64(out.Recoveries)
			res.counts["sim_efficiency"] = out.Efficiency
		}
	}
	ops := float64(res.attempted - res.failed)
	res.counts["sim.events_per_op"] = float64(events) / ops
	res.counts["sim.cancelled_share"] = float64(cancelled) / float64(events)
	res.counts["sim.queue_peak"] = queuePeak
	res.counts["channel.frames_per_op"] = float64(frames) / ops
	res.counts["channel.corrupted_share"] = float64(corrupted) / float64(frames)
	if queueN > 0 {
		res.counts["channel.wire_queue_mean_us"] = queueNS / float64(queueN) / 1e3
	}
	res.counts["sim_makespan_s"] = makespan
	res.timings["sim.ns_per_event"] = float64(res.m.dur.Nanoseconds()) / float64(events)
	return res
}

// handArena backs the hand-built stack's payloads across repetitions, as
// bench.Run's pooled scratch arena does for the real runner.
var handArena workload.Arena

// handResult is what the hand-built stack reports: the fields the self-test
// pins against bench.Run, plus the host time of the whole repetition.
type handResult struct {
	Delivered       uint64
	Retransmissions uint64
	Elapsed         sim.Duration
	Executed        uint64
	Frames          uint64
	dur             time.Duration
}

// runHandBuilt reproduces bench.Run's wiring for one engine from the public
// constructors, with the tracer's shims on the four public seams: an
// arq.Wire around each pipe (channel.send), Pipe.SetHandler wrappers around
// the two HandleFrames (<layer>.rx_frame, <layer>.tx_ctrl), a workload.Sink
// wrapper (<layer>.enqueue) and an arq.DeliverFunc wrapper (bench.deliver),
// all under one root span. With a nil tracer it is the bare stack; with
// registry false every layer runs uninstrumented (metrics.cost_share).
// TestHandBuiltMatchesBenchRun pins it to bench.Run for all four engines.
func runHandBuilt(c bench.RunConfig, e linkEngine, tr *tracer, registry bool) handResult {
	var res handResult
	start := time.Now()
	tr.root("rep", func() {
		var reg *metrics.Registry
		if registry {
			reg = metrics.New()
		}
		sched := sim.NewScheduler()
		sched.Instrument(reg)
		rng := sim.NewRNG(c.Seed)
		pipe := func() channel.PipeConfig {
			return channel.PipeConfig{
				RateBps: c.RateBps,
				Delay:   channel.ConstantDelay(c.OneWay),
				IModel:  channel.MustParseModel(c.IModelSpec).New(),
				CModel:  channel.MustParseModel(c.CModelSpec).New(),
				Metrics: reg,
			}
		}
		link := channel.NewAsymmetricLink(sched, pipe(), pipe(), rng)

		got := make(map[uint64]int, c.N)
		genuine := 0
		var last sim.Time
		deliver := tr.deliver(func(now sim.Time, dg arq.Datagram, _ uint32) {
			got[dg.ID]++
			if dg.ID < uint64(c.N) && got[dg.ID] == 1 {
				genuine++
				last = now
				if genuine == c.N {
					sched.Stop()
				}
			}
		}, "bench.deliver")

		m := &arq.Metrics{}
		ab := tr.wire(link.AtoB, "channel.send")
		ba := tr.wire(link.BtoA, "channel.send")
		rtt := 2 * c.OneWay
		var tx, rx arq.Endpoint
		var enqueue workload.Sink
		switch e.proto {
		case bench.LAMS:
			cfg := lamsdlc.Defaults(rtt)
			cfg.CheckpointInterval, cfg.CumulationDepth = c.Icp, c.Cdepth
			cfg.ProcTime, cfg.RecvBufferCap, cfg.SendBufferCap = c.Tproc, c.RecvCap, c.SendCap
			cfg.Metrics = reg
			s := lamsdlc.NewSender(sched, ab, cfg, m, nil)
			tx, rx, enqueue = s, lamsdlc.NewReceiver(sched, ba, cfg, m, deliver), s.Enqueue
		case bench.SRHDLC, bench.GBNHDLC:
			cfg := hdlc.Defaults(rtt)
			cfg.Mode = hdlc.SelectiveRepeat
			if e.proto == bench.GBNHDLC {
				cfg.Mode = hdlc.GoBackN
			}
			cfg.WindowSize, cfg.ModulusBits, cfg.Timeout = c.W, 0, rtt+c.Alpha
			cfg.ProcTime, cfg.Stutter, cfg.MaxTimeouts = c.Tproc, c.Stutter, c.N2
			cfg.Metrics = reg
			s := hdlc.NewSender(sched, ab, cfg, m)
			tx, rx, enqueue = s, hdlc.NewReceiver(sched, ba, cfg, m, deliver), s.Enqueue
		default: // ssarq: bench.Run gives it the registry defaults
			cfg := ssarq.Defaults(rtt)
			s := ssarq.NewSender(sched, ab, cfg, m, nil)
			tx, rx, enqueue = s, ssarq.NewReceiver(sched, ba, cfg, m, deliver), s.Enqueue
		}
		link.AtoB.SetHandler(tr.handler(rx.HandleFrame, e.layer+".rx_frame"))
		link.BtoA.SetHandler(tr.handler(tx.HandleFrame, e.layer+".tx_ctrl"))
		tx.Start()
		rx.Start()

		gen := workload.NewSaturating(sched, tr.sink(enqueue, e.layer+".enqueue"), c.Icp, c.PayloadBytes, c.N)
		gen.UseArena(&handArena)
		sched.RunUntil(sim.Time(10 * sim.Minute))

		res = handResult{
			Delivered:       m.Delivered.Value(),
			Retransmissions: m.Retransmissions.Value(),
			Elapsed:         sim.Duration(last),
			Executed:        sched.Executed(),
			Frames:          link.AtoB.Stats.FramesSent.Value() + link.BtoA.Stats.FramesSent.Value(),
		}
		handArena.Reset()
		sched.Recycle()
	})
	res.dur = time.Since(start)
	return res
}

// layers alternates, per engine, the real runner (bench.Run, untraced) with
// the hand-built traced stack, then drives the wheel, one pipe and the
// generator alone with the counts the real run reported.
func (w *linkWorkload) layers(tr *tracer, budget time.Duration) map[string]summary {
	out := map[string]summary{}
	deadline := time.Now().Add(budget * 6 / 10)
	var untraced, traced, withReg, noReg []float64
	var events, frames, peak uint64
	var untracedNS float64
	for r := 0; r < 2 || time.Now().Before(deadline); r++ {
		var u, t time.Duration
		for _, e := range w.engines {
			cfg := w.config(e, r)
			start := time.Now()
			res := bench.Run(cfg)
			u += time.Since(start)
			h := runHandBuilt(cfg, e, tr, true)
			t += h.dur
			events += h.Executed
			frames += h.Frames
			peak = max(peak, uint64(res.Snapshot.Gauges["sim_event_queue_peak"]))
		}
		untraced, traced = append(untraced, u.Seconds()), append(traced, t.Seconds())
		untracedNS += float64(u.Nanoseconds())
		cfg := w.config(w.engines[0], r)
		withReg = append(withReg, runHandBuilt(cfg, w.engines[0], nil, true).dur.Seconds())
		noReg = append(noReg, runHandBuilt(cfg, w.engines[0], nil, false).dur.Seconds())
	}
	u := summarize(untraced).Median
	out["trace.overhead_share"] = exact((summarize(traced).Median - u) / u)
	on := summarize(withReg).Median
	out["metrics.cost_share"] = exact((on - summarize(noReg).Median) / on)

	for _, e := range w.engines {
		share := 0.0
		for _, seam := range []string{"enqueue", "rx_frame", "tx_ctrl"} {
			out[e.layer+"."+seam+"_ns"] = exact(tr.meanSelfNS(e.layer + "." + seam))
			share += tr.share(e.layer + "." + seam)
		}
		if e == engLAMS {
			out["lamsdlc.share"] = exact(share)
		}
	}
	out["channel.send_ns"] = exact(tr.meanSelfNS("channel.send"))
	out["channel.send_share"] = exact(tr.share("channel.send"))
	out["bench.deliver_ns"] = exact(tr.meanSelfNS("bench.deliver"))
	out["bench.unattributed_share"] = exact(tr.share("rep"))

	base := bench.Base()
	tf := sim.Duration(float64((base.PayloadBytes+21)*8) / base.RateBps * float64(sim.Second))
	reps := len(untraced)
	// One event in frames/events is a pipe arrival, one propagation delay
	// out; the rest (send pacing, t_proc) are about one frame time out.
	long := max(1, int(8*frames/max(events, 1)))
	deltas := make([]sim.Duration, 8)
	for i := range deltas {
		deltas[i] = tf
		if i < long {
			deltas[i] = base.OneWay
		}
	}
	rep0 := w.rep(0)
	alone := aloneSim(holdModel{
		events: int(events) / reps, population: int(peak),
		cancelled: rep0.counts["sim.cancelled_share"], deltas: deltas,
	})
	out["sim.alone_ns_per_event"] = exact(alone)
	out["sim.share"] = exact(alone / (untracedNS / float64(events)))
	out["channel.alone_ns_per_frame"] = exact(aloneChannel(w.imodel, base.RateBps, base.OneWay, int(frames)/reps))
	out["workload.alone_ns_per_op"] = exact(aloneWorkload(w.n, base.PayloadBytes))
	return out
}
