// Package lams is the public face of the LAMS-DLC reproduction: a
// discrete-event implementation of the LAMS-DLC ARQ protocol (Ward & Choi,
// Auburn CSE-91-03 / SIGCOMM 1991) for low-altitude multiple-satellite
// laser crosslinks, together with the selective-repeat and Go-Back-N HDLC
// baselines, the link/orbit/FEC substrates they run on, and the analytical
// model of the paper's Section 4.
//
// The facade wraps the internal packages into a small surface:
//
//	sim := lams.NewSimulation(42)
//	link := sim.NewLink(lams.LinkParams{
//	    RateBps: 300e6, DistanceKm: 4000, BER: 1e-6,
//	})
//	pair := sim.NewLAMSPair(link, lams.DefaultsFor(link), deliver, nil)
//	pair.Sender.Enqueue(...)
//	sim.RunFor(time.Second)
//
// Everything below this facade is importable inside the module
// (internal/...), documented per package: sim (event kernel), frame (wire
// format), fec, orbit, channel, lamsdlc (the protocol), hdlc (baselines),
// analysis (closed forms), resequence, node (store-and-forward), workload,
// bench (experiment harness), live (real-time driver).
package lams

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/hdlc"
	"repro/internal/lamsdlc"
	"repro/internal/orbit"
	"repro/internal/sim"
)

// Re-exported core types, so example and downstream code reads naturally.
type (
	// Datagram is the unit of the DLC's datagram service.
	Datagram = arq.Datagram
	// DeliverFunc receives datagrams handed up to the network layer.
	DeliverFunc = arq.DeliverFunc
	// FailureFunc is invoked when a sender declares link failure.
	FailureFunc = arq.FailureFunc
	// Metrics aggregates per-session measurements.
	Metrics = arq.Metrics
	// Config parameterizes LAMS-DLC endpoints.
	Config = lamsdlc.Config
	// HDLCConfig parameterizes the baseline endpoints.
	HDLCConfig = hdlc.Config
	// Link is a simulated full-duplex point-to-point link.
	Link = channel.Link
	// Time and Duration are virtual-clock instants and spans.
	Time = sim.Time
	// AnalysisParams carries the Section 4 closed-form parameters.
	AnalysisParams = analysis.Params
)

// Simulation owns a deterministic virtual-time world: scheduler plus seeded
// randomness. All objects created through it share the same clock.
type Simulation struct {
	sched *sim.Scheduler
	rng   *sim.RNG
}

// NewSimulation returns an empty world; identical seeds reproduce identical
// runs bit for bit.
func NewSimulation(seed uint64) *Simulation {
	return &Simulation{sched: sim.NewScheduler(), rng: sim.NewRNG(seed)}
}

// Scheduler exposes the underlying event scheduler for advanced use
// (custom timers, workload generators).
func (s *Simulation) Scheduler() *sim.Scheduler { return s.sched }

// RNG exposes the root random stream.
func (s *Simulation) RNG() *sim.RNG { return s.rng }

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.sched.Now() }

// RunFor advances virtual time by d, executing everything due.
func (s *Simulation) RunFor(d time.Duration) { s.sched.RunFor(d) }

// Run executes until no events remain.
func (s *Simulation) Run() { s.sched.Run() }

// LinkParams describes a laser crosslink in physical terms. The FEC layer
// of the link model (assumption 4) is applied automatically: I-frames ride
// Hamming(7,4), control frames the stronger repetition code, so the BER
// maps to much smaller residual frame error probabilities for control
// traffic.
type LinkParams struct {
	// RateBps is the wire rate (300e6–1e9 in the paper's environment).
	RateBps float64
	// DistanceKm sets a constant propagation distance. Mutually exclusive
	// with Orbit.
	DistanceKm float64
	// Orbit, when non-nil, drives a time-varying propagation delay from
	// real geometry.
	Orbit *orbit.Link
	// BER is the post-interleaving channel bit error rate. Zero means a
	// perfect channel.
	BER float64
	// IModelSpec and CModelSpec, when non-empty, select the per-frame-class
	// error models from the channel registry (grammar: kind[:k=v,...], see
	// channel.SpecGrammar). They take precedence over BER, which is
	// shorthand for bsc specs; a malformed spec panics in NewLink, so
	// validate user input with channel.ParseModel first.
	IModelSpec string
	CModelSpec string
}

// delayFn builds the propagation model.
func (p LinkParams) delayFn() channel.DelayFn {
	if p.Orbit != nil {
		return channel.OrbitDelay(*p.Orbit, 0)
	}
	return channel.ConstantDelay(orbit.PropagationDelay(p.DistanceKm * 1e3))
}

// OneWay returns the (initial) one-way propagation delay.
func (p LinkParams) OneWay() time.Duration { return p.delayFn()(0) }

// specs names the per-frame-class error models in the channel registry's
// grammar, the one form NewLink and AnalysisFor read. Explicit specs win;
// otherwise the BER shorthand expands to the paper's standard FEC split
// (Hamming(7,4) on I-frames, repetition-3 on control frames).
func (p LinkParams) specs() (imodel, cmodel string) {
	if p.IModelSpec != "" || p.CModelSpec != "" {
		return p.IModelSpec, p.CModelSpec
	}
	return channel.LegacySpecs(p.BER, -1, -1)
}

// NewLink materializes the link in this simulation.
func (s *Simulation) NewLink(p LinkParams) *Link {
	imodel, cmodel := p.specs()
	return channel.NewLink(s.sched, channel.PipeConfig{
		RateBps:    p.RateBps,
		Delay:      p.delayFn(),
		IModelSpec: imodel,
		CModelSpec: cmodel,
	}, s.rng.Split())
}

// DefaultsFor returns a LAMS-DLC configuration tuned to the link's round
// trip, as lamsdlc.Defaults does.
func DefaultsFor(p LinkParams) Config {
	return lamsdlc.Defaults(2 * p.OneWay())
}

// HDLCDefaultsFor returns a baseline configuration for the same link.
func HDLCDefaultsFor(p LinkParams) HDLCConfig {
	return hdlc.Defaults(2 * p.OneWay())
}

// LAMSPair is a wired LAMS-DLC sender/receiver pair: the arq.Pair, with its
// halves typed.
type LAMSPair struct {
	*arq.Pair
	Sender   *lamsdlc.Sender
	Receiver *lamsdlc.Receiver
}

// HDLCPair is a wired baseline pair, its halves typed like LAMSPair's.
type HDLCPair struct {
	*arq.Pair
	Sender   *hdlc.Sender
	Receiver *hdlc.Receiver
}

// NewLAMSPair wires a LAMS-DLC session over link (data flows A→B) and
// starts it.
func (s *Simulation) NewLAMSPair(link *Link, cfg Config, deliver DeliverFunc, onFailure FailureFunc) *LAMSPair {
	p := arq.NewPair(s.sched, s.sched, link, cfg, deliver, onFailure)
	p.Start()
	return &LAMSPair{Pair: p, Sender: p.Sender.(*lamsdlc.Sender), Receiver: p.Receiver.(*lamsdlc.Receiver)}
}

// NewHDLCPair wires a baseline session over link and starts it. onFailure
// (may be nil) fires if the sender exhausts its N2 retry count
// (HDLCConfig.MaxTimeouts), matching NewLAMSPair's signature.
func (s *Simulation) NewHDLCPair(link *Link, cfg HDLCConfig, deliver DeliverFunc, onFailure FailureFunc) *HDLCPair {
	p := arq.NewPair(s.sched, s.sched, link, cfg, deliver, onFailure)
	p.Start()
	return &HDLCPair{Pair: p, Sender: p.Sender.(*hdlc.Sender), Receiver: p.Receiver.(*hdlc.Receiver)}
}

// AnalysisFor maps a link and protocol configuration onto the paper's
// closed-form parameters for the given I-frame payload size and HDLC
// comparison window. P_F and P_C come from BER through the link FEC, or,
// when the link names its models by spec, from the models themselves — NaN
// for one with no closed form (channel.AnalyticModel).
func AnalysisFor(p LinkParams, cfg Config, payloadBytes, window int, alpha time.Duration) AnalysisParams {
	a := analysis.FromScenario(analysis.Scenario{
		RateBps:      p.RateBps,
		BER:          p.BER,
		FrameBytes:   payloadBytes + 21,
		ControlBytes: 20,
		OneWay:       p.OneWay(),
		Icp:          cfg.CheckpointInterval,
		Cdepth:       cfg.CumulationDepth,
		W:            window,
		Tproc:        cfg.ProcTime,
		Alpha:        alpha,
	})
	if p.IModelSpec != "" || p.CModelSpec != "" {
		a.PF, a.PC = channel.FrameErrorProb(p.IModelSpec), channel.FrameErrorProb(p.CModelSpec)
	}
	return a
}
