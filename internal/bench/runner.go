// Package bench is the experiment harness that regenerates the paper's
// evaluation: every table and figure of Section 4 (and the protocol-design
// claims of §2.3/§3.3) has an experiment here that (a) evaluates the paper's
// closed-form model via internal/analysis and (b) re-measures the same
// quantity by running the real protocol implementations over the simulated
// laser link, then checks the paper's shape claims (who wins, by what
// factor, where the trend bends).
//
// The experiment index lives in DESIGN.md §5; cmd/lamstables prints every
// experiment, and bench_test.go exposes each as a testing.B benchmark.
package bench

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Protocol selects the DLC under test by its registry name (see
// internal/arq: Register/ParseProtocol). The zero value means LAMS-DLC, for
// compatibility with configs that never set the field.
type Protocol string

// The in-tree protocols, for convenience; any registered name works.
const (
	LAMS    Protocol = "lams"
	SRHDLC  Protocol = "srhdlc"
	GBNHDLC Protocol = "gbn"
)

// String names the protocol by its registry display name ("LAMS-DLC",
// "SR-HDLC", "GBN-HDLC"), keeping table and CSV output byte-stable with the
// pre-registry harness.
func (p Protocol) String() string {
	reg, err := p.registration()
	if err != nil {
		return fmt.Sprintf("Protocol(%q)", string(p))
	}
	return reg.Display
}

// registration resolves the protocol in the engine registry; the zero
// Protocol is LAMS-DLC.
func (p Protocol) registration() (arq.Registration, error) {
	if p == "" {
		p = LAMS
	}
	return arq.ParseProtocol(string(p))
}

// RunConfig describes one protocol run.
type RunConfig struct {
	Protocol Protocol

	// Traffic: N datagrams of PayloadBytes each, offered all at once
	// (saturating the sending buffer, the §4 high-traffic model) unless
	// OfferInterval is set (constant-rate arrivals).
	N             int
	PayloadBytes  int
	OfferInterval sim.Duration
	// Poisson makes OfferInterval the mean of exponential inter-arrivals
	// instead of a fixed spacing.
	Poisson bool

	// Link.
	RateBps float64
	OneWay  sim.Duration
	// IModelSpec and CModelSpec name the error models by registry spec
	// ("fixed:p=0.05", "ge:gber=1e-7,...", "trace:file=..."; see
	// channel.ParseModel); empty is the perfect channel. Run parses each
	// spec once and every pipe of the link instantiates a FRESH model from
	// it, so stateful models (Gilbert-Elliott, replay cursors) work per
	// direction and no instance is ever shared between two runs of a
	// RunMany batch. A malformed spec panics in Run (Validate reports it).
	IModelSpec, CModelSpec string

	// RecordChannels, when non-nil, wraps every channel model in a
	// channel.Recorder capturing its per-frame decisions into the set's
	// streams "ab/i", "ab/c", "ba/i", "ba/c" (direction/frame-class). A
	// recording set belongs to exactly one run — never share one across a
	// RunMany batch.
	RecordChannels *channel.TraceSet
	// ReplayChannels, when non-nil, REPLACES the channel models with
	// channel.Replay cursors over the same four streams (missing streams
	// replay clean). The set is read read-only and may be shared by any
	// number of concurrent runs. Fault-injector burst gates still wrap the
	// replayed models: faults compose on top of a replayed channel exactly
	// as on a live one.
	ReplayChannels *channel.TraceSet
	// ReplayPolicy governs a replay cursor that outlives its trace
	// (default channel.LoopReplay).
	ReplayPolicy channel.ReplayPolicy
	// IExpansion/CExpansion scale wire occupancy for the FEC code rate.
	IExpansion, CExpansion float64
	// TapAB and TapBA, when non-nil, observe the two link directions for
	// tracing.
	TapAB, TapBA channel.Tap

	// Protocol parameters.
	Icp     sim.Duration // LAMS checkpoint interval
	Cdepth  int
	W       int          // HDLC window
	Alpha   sim.Duration // HDLC timeout slack
	Stutter bool         // HDLC idle-time stutter retransmission
	N2      int          // HDLC MaxTimeouts retry budget (0 = supervision off, the historical default)
	Tproc   sim.Duration
	RecvCap int // LAMS receive buffer cap (0 = unbounded)
	SendCap int

	Seed    uint64
	Horizon sim.Duration // safety stop; 0 = 10 virtual minutes

	// Faults, when non-nil, scripts deterministic link faults (outages,
	// storms, bursts, skew, handovers) against the run; see
	// internal/faults for the schedule grammar. Purely schedule-driven:
	// a faulted run stays bit-identical at any worker count.
	Faults *faults.Spec
	// CheckInvariants attaches the §3.2 invariant checker; breaches land
	// in RunResult.Violations. Against a non-checkpointing engine the
	// checker's applicable subset (no-loss, duplicates, completion) runs
	// and the recovery rules stay dormant.
	CheckInvariants bool

	// Metrics, when non-nil, is the registry the run's scheduler, channel,
	// and protocol instruments report into (a live /metrics endpoint shares
	// one registry across the run). When nil, Run creates a fresh per-run
	// registry — runs stay hermetic, so RunMany results are
	// bit-identical at any worker count — and RunResult.Snapshot carries
	// its final state either way.
	Metrics *metrics.Registry
}

// RunResult carries the measurements every experiment reads.
type RunResult struct {
	Protocol        Protocol
	Delivered       uint64
	Duplicates      uint64
	Lost            int // datagrams never delivered within the horizon
	FirstTx         uint64
	Retransmissions uint64
	ControlSent     uint64
	Elapsed         sim.Duration // offer start to last delivery
	Efficiency      float64      // delivered payload bits / (rate × elapsed)
	TransPerFrame   float64      // empirical s̄: transmissions per delivered frame
	MeanHolding     sim.Duration
	MaxHolding      sim.Duration
	MeanDelay       sim.Duration // enqueue → delivery
	SendBufMean     float64
	SendBufMax      float64
	RecvBufMax      float64
	RecvDropped     uint64
	RateChanges     uint64
	Recoveries      uint64
	Failures        uint64
	FinalBacklog    int // sending buffer population at the horizon
	MaxLiveSpan     uint32
	FinalRate       float64 // LAMS flow-control rate fraction at the end

	// Snapshot is the final state of the run's metrics registry: every
	// counter, gauge, and histogram the instrumented layers reported
	// (lams_*/hdlc_*/channel_*/sim_*; see each package's instruments).
	Snapshot metrics.Snapshot

	// Violations holds the invariant-checker findings when
	// RunConfig.CheckInvariants was set (nil/empty = contract held).
	Violations []faults.Violation

	// Convergence measurements, populated only when the checker ran under a
	// corruption schedule (CheckInvariants + corruption events). Both are
	// order-independent scalars, so RunMany results stay bit-identical at
	// any worker count. ExcusedBreaches counts the corruption-era casualties
	// the convergence rule waved through; ConvergenceTime is how long after
	// the adversary stopped the last breach landed (zero = instant).
	ExcusedBreaches uint64
	ConvergenceTime sim.Duration
}

// knobs is the protocol-neutral view of the run's protocol parameters that
// each engine's registration maps onto its own configuration
// (arq.Registration.Configure).
func (c RunConfig) knobs() arq.Knobs {
	return arq.Knobs{
		RoundTrip: 2 * c.OneWay,
		Icp:       c.Icp,
		Cdepth:    c.Cdepth,
		W:         c.W,
		Alpha:     c.Alpha,
		Stutter:   c.Stutter,
		N2:        c.N2,
		Tproc:     c.Tproc,
		RecvCap:   c.RecvCap,
		SendCap:   c.SendCap,
		Metrics:   c.Metrics,
	}
}

// engine resolves the run's protocol and maps the run's knobs onto its
// configuration. An unregistered protocol panics: a wiring error, like a
// malformed spec.
func (c RunConfig) engine() (arq.Registration, arq.EngineConfig) {
	reg, err := c.Protocol.registration()
	if err != nil {
		panic("bench: " + err.Error())
	}
	return reg, reg.Configure(c.knobs())
}

// Validate reports the first reason Run would panic on c or measure a link
// that cannot exist, down to the knobs the engine's configuration rejects.
// The CLIs call it on user input; Run does not, to parse each spec once.
func (c RunConfig) Validate() error {
	switch {
	case c.N < 0:
		return fmt.Errorf("bench: negative datagram count %d", c.N)
	case c.PayloadBytes < 0:
		return fmt.Errorf("bench: negative payload size %d", c.PayloadBytes)
	case !(c.RateBps > 0):
		return fmt.Errorf("bench: link rate %g bits/s, want > 0", c.RateBps)
	case c.OneWay < 0:
		return fmt.Errorf("bench: negative one-way delay %v", c.OneWay)
	case c.Icp <= 0:
		return fmt.Errorf("bench: checkpoint interval %v, want > 0", c.Icp)
	case c.OfferInterval < 0:
		return fmt.Errorf("bench: negative offer interval %v", c.OfferInterval)
	case c.Horizon < 0:
		return fmt.Errorf("bench: negative horizon %v", c.Horizon)
	}
	for _, spec := range []string{c.IModelSpec, c.CModelSpec} {
		if _, err := channel.ModelFactory(spec); err != nil {
			return err
		}
	}
	reg, err := c.Protocol.registration()
	if err != nil {
		return err
	}
	return reg.Configure(c.knobs()).Validate()
}

// modelFactory parses spec once and returns the per-pipe instance factory
// (the perfect channel for the empty spec).
func modelFactory(spec string) func() channel.ErrorModel {
	f, err := channel.ModelFactory(spec)
	if err != nil {
		panic(err)
	}
	return f
}

// pipes builds the two directions' configs ("ab", "ba": the names of each
// direction's trace streams). Model specs are resolved here rather than in
// channel.NewPipe so the record/replay wrappers below — and the fault
// injector's burst gates, which Run applies after this — compose around
// the concrete per-direction instance.
func (c RunConfig) pipes() (ab, ba channel.PipeConfig) {
	newI, newC := modelFactory(c.IModelSpec), modelFactory(c.CModelSpec)
	pipe := func(dir string) channel.PipeConfig {
		p := channel.PipeConfig{
			RateBps:    c.RateBps,
			Delay:      channel.ConstantDelay(c.OneWay),
			IModel:     newI(),
			CModel:     newC(),
			IExpansion: c.IExpansion,
			CExpansion: c.CExpansion,
			Metrics:    c.Metrics,
		}
		if c.ReplayChannels != nil {
			// Get, not Stream: replay must not mutate a set shared across a
			// concurrent batch; absent streams replay clean.
			p.IModel = channel.NewReplay(c.ReplayChannels.Get(dir+"/i"), c.ReplayPolicy)
			p.CModel = channel.NewReplay(c.ReplayChannels.Get(dir+"/c"), c.ReplayPolicy)
		}
		if c.RecordChannels != nil {
			p.IModel = channel.NewRecorder(p.IModel, c.RecordChannels.Stream(dir+"/i"))
			p.CModel = channel.NewRecorder(p.CModel, c.RecordChannels.Stream(dir+"/c"))
		}
		return p
	}
	return pipe("ab"), pipe("ba")
}

// runScratch is the harness's own part of the run memory: the delivery
// counts, one per genuine datagram ID, and the arena whose Reset checks the
// run's payloads. It rides the scheduler like every other recycled object, so
// RunMany at W workers keeps at most W warm. Reuse is safe because nothing in
// RunResult references it — the counts are read out into Duplicates.
type runScratch struct {
	counts []uint32
	arena  workload.Arena
}

var scratch = sim.NewLocal[runScratch]()

// Run executes the configured scenario to completion (all N datagrams
// delivered) or to the horizon, and returns the measurements.
func Run(c RunConfig) RunResult {
	if c.Horizon == 0 {
		c.Horizon = 10 * sim.Minute
	}
	if c.Metrics == nil {
		c.Metrics = metrics.New()
	}
	sched := sim.NewScheduler()
	sched.Instrument(c.Metrics)
	rng := sim.NewRNG(c.Seed)
	ab, ba := c.pipes()
	ab.Tap, ba.Tap = c.TapAB, c.TapBA
	var inj *faults.Injector
	if c.Faults != nil && len(c.Faults.Events) > 0 {
		inj = faults.NewInjector(sched, c.Faults, c.Metrics)
		if c.Faults.NeedsRNG() {
			// Only corruption schedules consume randomness; splitting the
			// stream unconditionally would shift every legacy run's draws.
			inj.Seed(rng.Split())
		}
		inj.WrapPipeConfigs(&ab, &ba)
	}
	link := channel.NewAsymmetricLink(sched, ab, ba, rng)
	if inj != nil {
		inj.AttachLink(link)
	}

	sc := scratch.Of(sched)
	if cap(sc.counts) < c.N {
		sc.counts = make([]uint32, c.N)
	}
	got := sc.counts[:c.N]
	clear(got)
	var lastDelivery sim.Time
	genuine := 0
	deliver := func(now sim.Time, dg arq.Datagram, _ uint32) {
		// Only the workload's own datagrams (sequential IDs below N) are
		// counted: a ghost-forgery schedule delivers fabricated high-bit
		// IDs, and counting those toward completion would stop the run
		// before the genuine tail arrives.
		if dg.ID >= uint64(len(got)) {
			return
		}
		got[dg.ID]++
		if got[dg.ID] == 1 {
			genuine++
			lastDelivery = now
			// Stop early once everything has arrived at least once.
			if genuine == c.N {
				sched.Stop()
			}
		}
	}

	reg, ecfg := c.engine()

	var chk *faults.Checker
	var finish func(*RunResult)
	if c.CheckInvariants {
		// Engines without enforced recovery provide no RecoveryWindows; the
		// zero value keeps the checker's recovery rules dormant.
		var w arq.RecoveryWindows
		if wp, ok := ecfg.(arq.WindowsProvider); ok {
			w = wp.RecoveryWindows()
		}
		chk = faults.NewChecker(w)
		deliver = chk.WrapDeliver(deliver)
		if c.Faults != nil {
			if start, end, ok := c.Faults.CorruptionWindow(); ok {
				chk.Now = sched.Now
				// The engine's published stabilization bound governs the
				// convergence rule; engines without one get a generous
				// harness fallback (a handful of round trips).
				bound := 8 * 2 * c.OneWay
				if sb, ok := ecfg.(arq.StabilizationBound); ok {
					bound = sb.ConvergenceBound()
				}
				chk.SetCorruption(sim.Time(start), sim.Time(end), bound)
			}
		}
	}

	pair := reg.New(sched, sched, link, ecfg, deliver, nil)
	if chk != nil {
		pair.SetProbe(chk.Probe())
		finish = func(res *RunResult) {
			res.Violations = chk.Finish(pair.Reclaim())
			res.ExcusedBreaches = uint64(len(chk.Excused()))
			res.ConvergenceTime = chk.ConvergenceTime()
		}
	}
	if inj != nil {
		inj.AttachEndpoint(pair, c.Icp)
	}
	pair.Start()
	m := pair.Metrics()
	var enqueue workload.Sink = pair.Enqueue
	if chk != nil {
		enqueue = chk.WrapSink(enqueue)
	}
	backlog := pair.Outstanding
	maxSpan := func() uint32 { return 0 }
	if sr, ok := pair.(arq.SpanReporter); ok {
		maxSpan = sr.MaxLiveSpan
	}
	finalRate := func() float64 { return 1 }
	if rr, ok := pair.(arq.RateReporter); ok {
		finalRate = rr.RateFraction
	}

	var gen *workload.Generator
	switch {
	case c.OfferInterval > 0 && c.Poisson:
		gen = workload.NewPoisson(sched, rng.Split(), enqueue, c.OfferInterval, c.PayloadBytes, c.N)
	case c.OfferInterval > 0:
		gen = workload.NewConstantRate(sched, enqueue, c.OfferInterval, c.PayloadBytes, c.N)
	default:
		gen = workload.NewSaturating(sched, enqueue, c.Icp, c.PayloadBytes, c.N)
	}
	gen.UseArena(&sc.arena)

	sched.RunUntil(sim.Time(c.Horizon))

	res := RunResult{
		Protocol:        c.Protocol,
		Delivered:       m.Delivered.Value(),
		FirstTx:         m.FirstTx.Value(),
		Retransmissions: m.Retransmissions.Value(),
		ControlSent:     m.ControlSent.Value(),
		MeanHolding:     m.MeanHoldingTime(),
		MaxHolding:      sim.Duration(m.HoldingTime.Max()),
		MeanDelay:       sim.Duration(m.DeliveryDelay.Mean()),
		SendBufMean:     m.SendBufOcc.Mean(),
		SendBufMax:      m.SendBufOcc.Max(),
		RecvBufMax:      m.RecvBufOcc.Max(),
		RecvDropped:     m.RecvDropped.Value(),
		RateChanges:     m.RateChanges.Value(),
		Recoveries:      m.Recoveries.Value(),
		Failures:        m.Failures.Value(),
		FinalBacklog:    backlog(),
		MaxLiveSpan:     maxSpan(),
		FinalRate:       finalRate(),
	}
	for _, n := range got {
		if n > 1 {
			res.Duplicates += uint64(n - 1)
		}
	}
	res.Lost = c.N - genuine
	res.Elapsed = sim.Duration(lastDelivery)
	if lastDelivery > 0 {
		bits := float64(genuine) * float64(c.PayloadBytes) * 8
		res.Efficiency = bits / (c.RateBps * lastDelivery.Seconds())
	}
	if genuine > 0 {
		res.TransPerFrame = float64(res.FirstTx+res.Retransmissions) / float64(genuine)
	}
	if finish != nil {
		finish(&res)
	}
	res.Snapshot = c.Metrics.Snapshot()
	// The result is fully extracted and nothing of the run is referenced
	// from it: check the payloads, then donate the run memory — events,
	// frames, sending-buffer storage, this scratch — to the next run.
	sc.arena.Reset()
	sched.Recycle()
	return res
}

// Analytical builds the analysis parameters matching a RunConfig, using the
// configured per-frame error probabilities when the models carry them
// (channel.AnalyticModel — the validation experiments' FixedProb) and
// frame sizes from the codec. Non-analytic channels (BSC, Gilbert-Elliott,
// traces) yield NaN probabilities; render them as "-", never as 0.
func (c RunConfig) Analytical() analysis.Params {
	pf := channel.FrameErrorProb(c.IModelSpec)
	pc := channel.FrameErrorProb(c.CModelSpec)
	frameBytes := c.PayloadBytes + 21 // I-frame header + CRC
	ctrlBytes := 20                   // empty checkpoint
	return analysis.Params{
		PF:     pf,
		PC:     pc,
		R:      (2 * c.OneWay).Seconds(),
		Icp:    c.Icp.Seconds(),
		Cdepth: c.Cdepth,
		W:      c.W,
		Tf:     float64(frameBytes*8) / c.RateBps,
		Tc:     float64(ctrlBytes*8) / c.RateBps,
		Tproc:  c.Tproc.Seconds(),
		Alpha:  c.Alpha.Seconds(),
	}
}

// fmtProb renders an analytic probability for tables: "-" for NaN (the
// channel has no closed form), %.3g otherwise.
func fmtProb(p float64) string {
	if math.IsNaN(p) {
		return "-"
	}
	return fmt.Sprintf("%.3g", p)
}

// Check is a pass/fail assertion of one of the paper's shape claims.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Result is one regenerated table/figure plus its shape checks.
type Result struct {
	ID     string
	Title  string
	Table  *stats.Table
	Series []*stats.Series
	Checks []Check
	Notes  []string
	// Snapshots carries selected runs' full metrics snapshots, keyed by a
	// label the experiment chooses (e.g. "LAMS-DLC@N=8000"). Experiments
	// attach them where the protocol-internals view adds something the
	// table cannot show; cmd/lamstables -metrics prints them as JSON.
	Snapshots map[string]metrics.Snapshot
}

// check records an assertion.
func (r *Result) check(name string, pass bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// Passed reports whether every check passed.
func (r *Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Render formats the result for terminal output.
func (r *Result) Render() string {
	out := fmt.Sprintf("=== %s: %s ===\n", r.ID, r.Title)
	if r.Table != nil {
		out += r.Table.String()
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		out += fmt.Sprintf("check [%s] %s: %s\n", status, c.Name, c.Detail)
	}
	return out
}

// fmtDur renders a duration rounded for tables.
func fmtDur(d sim.Duration) string {
	switch {
	case d >= sim.Second:
		return fmt.Sprintf("%.3gs", d.Seconds())
	case d >= sim.Millisecond:
		return fmt.Sprintf("%.3gms", float64(d)/float64(sim.Millisecond))
	default:
		return fmt.Sprintf("%.3gus", float64(d)/float64(sim.Microsecond))
	}
}

// fmtRatio renders a/b guarding division by zero.
func fmtRatio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", a/b)
}

// near reports |a−b| ≤ tol·max(|a|,|b|).
func near(a, b, tol float64) bool {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return true
	}
	return math.Abs(a-b) <= tol*m
}
