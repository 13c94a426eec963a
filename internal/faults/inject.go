package faults

import (
	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Injector arms a Spec against one simulated link. Lifecycle:
//
//	inj := NewInjector(sched, spec, reg)
//	inj.Seed(rng.Split())           // only when spec.NeedsRNG(): scramble/ghost
//	inj.WrapPipeConfigs(&ab, &ba)   // before the link is built: burst gates
//	link := channel.NewAsymmetricLink(sched, ab, ba, rng)
//	inj.AttachLink(link)            // outages, handovers, storms, reorder
//	inj.AttachEndpoint(pair, wcp)   // skew, scramble, ghost (capability-gated)
//
// Legacy kinds are purely schedule-driven — no randomness, so a faulted run
// is exactly as reproducible as a clean one. The corruption adversaries
// (scramble, ghost) draw from the stream Seed installs; since that stream is
// split off the run's root RNG exactly once, deterministically, corrupted
// runs are just as reproducible — same spec, same seed, same event sequence
// at any worker count.
type Injector struct {
	sched *sim.Scheduler
	spec  *Spec
	rng   *sim.RNG // corruption adversaries only; nil for legacy schedules

	link   *channel.Link
	downAB int // overlap-safe down-counters per direction
	downBA int

	mEvents      *metrics.Counter // lams_fault_events_total
	mInjected    *metrics.Counter // lams_fault_frames_injected_total
	mBurstHits   *metrics.Counter // lams_fault_burst_corrupted_total
	mTransitions *metrics.Counter // lams_fault_link_transitions_total
	mSkews       *metrics.Counter // lams_fault_skew_windows_total
	mScrambles   *metrics.Counter // lams_fault_corrupt_scrambles_total
	mGhosts      *metrics.Counter // lams_fault_corrupt_ghosts_total
	mReordered   *metrics.Counter // lams_fault_corrupt_reordered_total
}

// NewInjector builds an injector for the spec. reg may be nil (the
// lams_fault_* instruments are nil-safe like every registry consumer). The
// spec must satisfy Validate — ParseSpec output always does; a hand-built
// schedule that doesn't is a programming error and panics here.
func NewInjector(sched *sim.Scheduler, spec *Spec, reg *metrics.Registry) *Injector {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &Injector{
		sched:        sched,
		spec:         spec,
		mEvents:      reg.Counter("lams_fault_events_total"),
		mInjected:    reg.Counter("lams_fault_frames_injected_total"),
		mBurstHits:   reg.Counter("lams_fault_burst_corrupted_total"),
		mTransitions: reg.Counter("lams_fault_link_transitions_total"),
		mSkews:       reg.Counter("lams_fault_skew_windows_total"),
		mScrambles:   reg.Counter("lams_fault_corrupt_scrambles_total"),
		mGhosts:      reg.Counter("lams_fault_corrupt_ghosts_total"),
		mReordered:   reg.Counter("lams_fault_corrupt_reordered_total"),
	}
}

// Seed installs the RNG stream the scramble and ghost adversaries draw
// from. Call it (with a stream split off the run's root RNG) if and only if
// spec.NeedsRNG(); legacy schedules skip it and stay draw-free.
func (inj *Injector) Seed(rng *sim.RNG) { inj.rng = rng }

// WrapPipeConfigs overlays the spec's burst episodes on the two directions'
// error processes. Call before building the link: the gates wrap IModel and
// CModel in place. Directions with no burst events are left untouched.
func (inj *Injector) WrapPipeConfigs(ab, ba *channel.PipeConfig) {
	var abBursts, baBursts []Event
	for _, ev := range inj.spec.Events {
		if ev.Kind != Burst {
			continue
		}
		if ev.Dir == AtoB || ev.Dir == Both {
			abBursts = append(abBursts, ev)
		}
		if ev.Dir == BtoA || ev.Dir == Both {
			baBursts = append(baBursts, ev)
		}
	}
	if len(abBursts) > 0 {
		ab.IModel = &burstGate{inner: ab.IModel, events: abBursts, hits: inj.mBurstHits}
		ab.CModel = &burstGate{inner: ab.CModel, events: abBursts, hits: inj.mBurstHits}
	}
	if len(baBursts) > 0 {
		ba.IModel = &burstGate{inner: ba.IModel, events: baBursts, hits: inj.mBurstHits}
		ba.CModel = &burstGate{inner: ba.CModel, events: baBursts, hits: inj.mBurstHits}
	}
}

// burstGate overlays scripted burst-loss episodes on an error model: a frame
// whose wire occupancy overlaps a burst interval is corrupted regardless of
// the underlying process. The schedule is computed, not drawn, so the gate
// consumes no randomness — the inner model's rng stream is untouched except
// that it is still consulted first for every frame, keeping draw sequences
// identical with and without overlapping bursts.
type burstGate struct {
	inner  channel.ErrorModel
	events []Event
	hits   *metrics.Counter
}

func (g *burstGate) Corrupt(rng *sim.RNG, start, end sim.Time, bits int) bool {
	base := false
	if g.inner != nil {
		base = g.inner.Corrupt(rng, start, end, bits)
	}
	for _, ev := range g.events {
		if g.overlaps(ev, start, end) {
			if !base {
				g.hits.Inc()
			}
			return true
		}
	}
	return base
}

func (g *burstGate) overlaps(ev Event, start, end sim.Time) bool {
	ws, we := sim.Time(ev.Start), sim.Time(ev.End())
	if end <= ws || start >= we {
		return false
	}
	// Clip the frame's occupancy to the window, then test the recurring
	// bursts at ws + k·(len+gap), each lasting len.
	s, e := sim.MaxTime(start, ws), sim.MinTime(end, we)
	period := ev.BurstLen + ev.BurstGap
	if period <= 0 {
		return true // len>0, gap=0: the whole window is one burst
	}
	first := int64(s.Sub(ws)) / int64(period)
	last := int64(e.Sub(ws)) / int64(period)
	for k := first; k <= last; k++ {
		bs := ws.Add(sim.Duration(k) * period)
		be := bs.Add(ev.BurstLen)
		if s < be && e > bs {
			return true
		}
	}
	return false
}

// AttachLink schedules the spec's outage, handover, and storm episodes
// against the link. Overlapping outages are reference-counted per direction,
// so a direction revives only when every episode covering it has closed.
func (inj *Injector) AttachLink(l *channel.Link) {
	inj.link = l
	for _, ev := range inj.spec.Events {
		ev := ev
		switch ev.Kind {
		case Outage, Handover:
			inj.at(ev.Start, func() { inj.mEvents.Inc(); inj.setDown(AtoB, +1); inj.setDown(BtoA, +1) })
			inj.at(ev.End(), func() { inj.setDown(AtoB, -1); inj.setDown(BtoA, -1) })
		case HalfDuplex:
			inj.at(ev.Start, func() { inj.mEvents.Inc(); inj.setDown(ev.Dir, +1) })
			inj.at(ev.End(), func() { inj.setDown(ev.Dir, -1) })
		case Storm:
			inj.at(ev.Start, func() { inj.mEvents.Inc(); inj.stormTick(ev, sim.Time(ev.End())) })
		case Reorder:
			inj.at(ev.Start, func() { inj.mEvents.Inc(); inj.setReorder(ev.Dir, ev.Jitter) })
			inj.at(ev.End(), func() { inj.setReorder(ev.Dir, 0) })
		}
	}
}

func (inj *Injector) setReorder(dir Dir, jitter sim.Duration) {
	counter := inj.mReordered
	if jitter == 0 {
		counter = nil
	}
	if dir == AtoB || dir == Both {
		inj.link.AtoB.SetReorder(jitter, counter)
	}
	if dir == BtoA || dir == Both {
		inj.link.BtoA.SetReorder(jitter, counter)
	}
}

// AttachEndpoint schedules the spec's endpoint-directed episodes against a
// pair, each gated on the capability it needs: clock-skew windows scale the
// checkpoint period through the receiver's arq.CheckpointRetimer (restored
// to basePeriod, W_cp, at close), scramble episodes drive the
// configuration's arq.StateCorruptor, and ghost episodes forge frames
// through its arq.GhostForger. An engine lacking a
// capability skips those episodes — the HDLC baselines skip skew, an engine
// without corruption support skips scramble/ghost — and all other fault
// kinds apply to any engine. Overlapping same-kind windows are rejected by
// Spec.Validate, so open/close transitions never contend.
func (inj *Injector) AttachEndpoint(p *arq.Pair, basePeriod sim.Duration) {
	if inj.rng == nil && inj.spec.NeedsRNG() {
		panic("faults: schedule has scramble/ghost events but Seed was never called")
	}
	if rt, ok := p.Receiver.(arq.CheckpointRetimer); ok {
		for _, ev := range inj.spec.Events {
			ev := ev
			if ev.Kind != Skew {
				continue
			}
			skewed := sim.Duration(float64(basePeriod) * ev.Factor)
			if skewed <= 0 {
				skewed = 1
			}
			inj.at(ev.Start, func() { inj.mEvents.Inc(); inj.mSkews.Inc(); rt.SetCheckpointPeriod(skewed) })
			inj.at(ev.End(), func() { rt.SetCheckpointPeriod(basePeriod) })
		}
	}
	if sc, ok := p.Config().(arq.StateCorruptor); ok {
		for _, ev := range inj.spec.Events {
			ev := ev
			if ev.Kind != Scramble {
				continue
			}
			inj.at(ev.Start, func() { inj.mEvents.Inc(); inj.scrambleTick(sc, p, ev, sim.Time(ev.End())) })
		}
	}
	if gf, ok := p.Config().(arq.GhostForger); ok {
		for _, ev := range inj.spec.Events {
			ev := ev
			if ev.Kind != Ghost {
				continue
			}
			inj.at(ev.Start, func() { inj.mEvents.Inc(); inj.ghostTick(gf, p, ev, sim.Time(ev.End())) })
		}
	}
}

// scrambleTick fires one state-corruption strike and re-arms until the
// episode closes. The strike runs synchronously on the pair's scheduler, so
// the engine sees its state change exactly as a cosmic-ray upset would look
// between two of its own events.
func (inj *Injector) scrambleTick(sc arq.StateCorruptor, p *arq.Pair, ev Event, until sim.Time) {
	if inj.sched.Now() >= until {
		return
	}
	sc.CorruptState(p, inj.rng)
	inj.mScrambles.Inc()
	inj.sched.ScheduleAfterDetached(ev.Period, func() { inj.scrambleTick(sc, p, ev, until) })
}

// ghostTick injects one forged frame per armed direction and re-arms until
// the episode closes. Ghosts go through Pipe.Send like storm frames — they
// occupy real wire time and suffer the direction's error process — and the
// pipe copies, so the forged frame itself is garbage the moment Send returns.
func (inj *Injector) ghostTick(gf arq.GhostForger, p *arq.Pair, ev Event, until sim.Time) {
	if inj.sched.Now() >= until {
		return
	}
	if ev.Dir == AtoB || ev.Dir == Both {
		if g := gf.ForgeGhost(p, inj.rng, true); g != nil {
			inj.link.AtoB.Send(g)
			inj.mGhosts.Inc()
			inj.mInjected.Inc()
		}
	}
	if ev.Dir == BtoA || ev.Dir == Both {
		if g := gf.ForgeGhost(p, inj.rng, false); g != nil {
			inj.link.BtoA.Send(g)
			inj.mGhosts.Inc()
			inj.mInjected.Inc()
		}
	}
	inj.sched.ScheduleAfterDetached(ev.Period, func() { inj.ghostTick(gf, p, ev, until) })
}

func (inj *Injector) at(d sim.Duration, fn func()) {
	inj.sched.ScheduleDetached(sim.Time(d), fn)
}

func (inj *Injector) setDown(dir Dir, delta int) {
	inj.mTransitions.Inc()
	switch dir {
	case AtoB:
		inj.downAB += delta
		inj.link.AtoB.SetDown(inj.downAB > 0)
	case BtoA:
		inj.downBA += delta
		inj.link.BtoA.SetDown(inj.downBA > 0)
	}
}

// stormTick injects one spurious control frame and re-arms until the
// episode closes. Injected frames go through Pipe.Send, so they occupy real
// wire time and suffer the direction's error process — a storm starves
// legitimate control traffic exactly the way a jammed return beam would.
func (inj *Injector) stormTick(ev Event, until sim.Time) {
	now := inj.sched.Now()
	if now >= until {
		return
	}
	inj.injectStorm(ev)
	inj.sched.ScheduleAfterDetached(ev.Period, func() { inj.stormTick(ev, until) })
}

func (inj *Injector) injectStorm(ev Event) {
	if ev.Dir == BtoA || ev.Dir == Both {
		// Spurious checkpoint toward the sender: stale serial, zero
		// watermark (never releases anything), and a NAK list naming the
		// first ev.NAKs sequence numbers — stale-NAK robustness is exactly
		// what §3.2's renumbering is supposed to buy.
		var naks []uint32
		for i := 0; i < ev.NAKs; i++ {
			naks = append(naks, uint32(i))
		}
		inj.link.BtoA.Send(frame.NewCheckpoint(ev.Serial, 0, naks, false, ev.Enforced))
		inj.mInjected.Inc()
	}
	if ev.Dir == AtoB || ev.Dir == Both {
		// Spurious Request-NAK toward the receiver: each one forces an
		// immediate Enforced-NAK answer, doubling the storm back onto the
		// checkpoint channel.
		inj.link.AtoB.Send(frame.NewRequestNAK(ev.Serial))
		inj.mInjected.Inc()
	}
}
