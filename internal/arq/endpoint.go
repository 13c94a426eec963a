package arq

import (
	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/sim"
)

// Endpoint is one half of an ARQ engine: a sans-IO state machine driven by
// the scheduler's virtual clock and by frames the wiring feeds it. Both
// LAMS-DLC and the HDLC baselines implement it for their senders and
// receivers, which is what lets the simulation and live drivers route
// frames without naming a protocol.
type Endpoint interface {
	// Start activates the endpoint's periodic processes (checkpoint
	// emission, timers). Idempotent where the protocol needs it to be.
	Start()
	// HandleFrame processes one arriving frame.
	HandleFrame(now sim.Time, f *frame.Frame)
}

// SenderHalf is what a pair needs of an engine's sending entity (the
// I-frame source, transmitting on link.AtoB). UnreleasedDatagrams backs
// Reclaim: the datagrams never positively acknowledged, oldest first.
// Shutdown backs Stop: timers stop and further work is refused without
// declaring failure.
type SenderHalf interface {
	Endpoint
	Enqueue(dg Datagram) bool
	UnreleasedDatagrams() []Datagram
	Outstanding() int
	Shutdown()
	SetProbe(p *Probe)
}

// ReceiverHalf is what a pair needs of an engine's receiving entity
// (transmitting acknowledgement traffic on link.BtoA). Stop halts its
// periodic processes; a purely reactive receiver implements Stop and
// SetProbe as no-ops.
type ReceiverHalf interface {
	Endpoint
	Stop()
	SetProbe(p *Probe)
}

// Pair is the engine contract every layer above the protocols programs
// against: an engine's two halves wired across one full-duplex link. NewPair
// builds every pair, through the configuration's own half factory, so any
// registered engine runs in any topology or harness. The node, session,
// bench, and faults layers consume it; a protocol-specific surface is a
// capability interface asserted on Sender, Receiver or Config.
//
// Datagram ownership: a datagram handed to Enqueue belongs to the engine
// until it is either delivered (the deliver callback fires at the far end)
// or handed back by Reclaim. Stop is an orderly teardown — timers stop, no
// failure is declared, and the undelivered datagrams stay reclaimable.
// Reclaim returns every datagram the engine still holds (never positively
// acknowledged), oldest first; after a declared failure or a Stop the
// caller re-routes or carries them over. Reclaim does not mutate delivery
// state, but a reclaimed datagram may still arrive at the receiver (its
// last transmission may be in flight), so exactly-once is the resequencer's
// job, not the engine's.
type Pair struct {
	Sender   SenderHalf
	Receiver ReceiverHalf
	link     *channel.Link
	cfg      EngineConfig
	metrics  *Metrics
	// rmetrics is non-nil only for a split pair: the receiver entity runs
	// on another scheduler and has its own block; Metrics merges the two on
	// demand into merged.
	rmetrics *Metrics
	merged   Metrics
}

// NewPair builds cfg's two halves and connects them across link — I-frames
// flow A→B into the receiver, acknowledgement traffic B→A into the sender.
// The sender entity runs on sendSched and the receiver entity, with deliver,
// on recvSched: the same scheduler everywhere but for a crosslink session
// whose satellites live on different shards, where the caller routes
// link.AtoB to the receiver's shard and link.BtoA back
// (channel.Pipe.SetRemote). On one scheduler the halves share ONE Metrics
// block, which Metrics returns for the pair's whole life (bench.Run holds it
// across the run); on two each entity gets its own, so the two goroutines
// never write the same counter. deliver and onFailure may be nil.
func NewPair(sendSched, recvSched *sim.Scheduler, link *channel.Link, cfg EngineConfig, deliver DeliverFunc, onFailure FailureFunc) *Pair {
	ms := &Metrics{}
	p := &Pair{link: link, cfg: cfg, metrics: ms}
	mr := ms
	if sendSched != recvSched {
		mr = &Metrics{}
		p.rmetrics = mr
	}
	p.Sender = cfg.NewSender(sendSched, link.AtoB, ms, onFailure)
	p.Receiver = cfg.NewReceiver(recvSched, link.BtoA, mr, deliver)
	link.AtoB.SetHandler(p.Receiver.HandleFrame)
	link.BtoA.SetHandler(p.Sender.HandleFrame)
	return p
}

// Start activates both ends, sender first.
func (p *Pair) Start() {
	p.Sender.Start()
	p.Receiver.Start()
}

// Stop is orderly teardown: the link is going away (end of pass), not
// failing. The receiver's periodic process halts, then the sender refuses
// further work; no failure callback fires and undelivered datagrams stay
// reclaimable.
func (p *Pair) Stop() {
	p.Receiver.Stop()
	p.Sender.Shutdown()
}

// Recycle hands the storage both halves took from their schedulers' run
// memory back to it (see Recycler); a half without such storage is skipped.
// It is the teardown of a finished run, for a harness that knows nothing will
// touch the pair again; the pair is dead afterwards, and each scheduler's own
// Recycle follows.
func (p *Pair) Recycle() {
	if r, ok := p.Sender.(Recycler); ok {
		r.Recycle()
	}
	if r, ok := p.Receiver.(Recycler); ok {
		r.Recycle()
	}
}

// Enqueue accepts a datagram from the network layer. False means the
// engine refused it (buffer at capacity, or the engine failed/stopped).
func (p *Pair) Enqueue(dg Datagram) bool { return p.Sender.Enqueue(dg) }

// Reclaim returns the datagrams the sender still holds (queued or
// unacknowledged), oldest first.
func (p *Pair) Reclaim() []Datagram { return p.Sender.UnreleasedDatagrams() }

// Outstanding returns the sending-buffer occupancy: unacknowledged frames
// plus queued datagrams.
func (p *Pair) Outstanding() int { return p.Sender.Outstanding() }

// Metrics exposes the pair's measurement block. For a split pair the two
// per-entity blocks are merged on demand; call only while both shards are
// quiesced (between rounds or after the run).
func (p *Pair) Metrics() *Metrics {
	if p.rmetrics == nil {
		return p.metrics
	}
	p.merged = MergeSplit(p.metrics, p.rmetrics)
	return &p.merged
}

// Link exposes the underlying simulated link (tests inject failures, the
// session layer fails it at pass end).
func (p *Pair) Link() *channel.Link { return p.link }

// Config returns the configuration the pair was built from: the engine, and
// where the corruption adversary's surfaces live.
func (p *Pair) Config() EngineConfig { return p.cfg }

// SetProbe installs the transition observer on both ends; nil detaches.
// Install before Start. Engines fire the callbacks that exist in their state
// machine and skip the rest, which is how the invariant checker's applicable
// subset follows the protocol.
func (p *Pair) SetProbe(pr *Probe) {
	p.Sender.SetProbe(pr)
	p.Receiver.SetProbe(pr)
}

// Optional capability interfaces, discovered by type assertion where they
// live: SpanReporter and RateReporter on a pair's Sender, CheckpointRetimer
// on its Receiver, Recycler on either half, WindowsProvider,
// StabilizationBound, StateCorruptor and GhostForger on its Config. They keep the core contract small: a consumer
// that needs a protocol-specific surface asserts for it and degrades
// gracefully when the engine lacks it.

// Recycler is implemented by a half that keeps run-memory storage — sending
// buffer, receive buffer, scratch lists — past what a run hands back by
// itself: Recycle returns all of it, with every frame and datagram it still
// holds, and leaves the half dead. Pair.Recycle calls it.
type Recycler interface {
	Recycle()
}

// SpanReporter reports the widest span of simultaneously live sequence
// numbers observed — meaningful for engines that renumber retransmissions
// (the §2.3 numbering-size bound).
type SpanReporter interface {
	MaxLiveSpan() uint32
}

// RateReporter reports the current flow-control send-rate fraction
// (engines with Stop-Go rate control).
type RateReporter interface {
	RateFraction() float64
}

// CheckpointRetimer re-times a periodic checkpoint process; the fault
// injector uses it to open clock-skew windows. Engines without a periodic
// receiver process simply don't implement it and skew events are skipped.
type CheckpointRetimer interface {
	SetCheckpointPeriod(d sim.Duration)
}

// RecoveryWindows bundles the timing bounds the §3.2 invariant checker
// asserts. Engines without an enforced-recovery procedure leave it zero:
// the recovery rules then never fire because the probe callbacks they
// watch are never invoked.
type RecoveryWindows struct {
	// CheckpointTimer is the minimum checkpoint silence before recovery
	// entry (C_depth·W_cp plus phase grace for LAMS-DLC).
	CheckpointTimer sim.Duration
	// FailureTimeout is the minimum response silence after a solicitation
	// before failure may be declared.
	FailureTimeout sim.Duration
	// ResolvingPeriod bounds how long a live sequence-number incarnation
	// may go unresolved while acknowledgements keep flowing.
	ResolvingPeriod sim.Duration
	// RoundTrip is R, the floor under the resolving bound.
	RoundTrip sim.Duration
}

// WindowsProvider exposes an engine configuration's recovery windows to
// the invariant checker. Implemented by lamsdlc.Config.
type WindowsProvider interface {
	RecoveryWindows() RecoveryWindows
}

// StateCorruptor is the surface the corruption adversary (faults kind
// "scramble") drives: one call overwrites a bounded, engine-chosen slice of
// live protocol state — serial watermarks, dedup timestamps, recovery
// timers, window bookkeeping — using draws from rng. Implementations must
// scramble only state the external probe observation cannot see directly
// (sequence-number incarnations stay probe-consistent), so the §3.2 checker
// keeps measuring the engine, not the adversary; DESIGN.md §13 states the
// ownership contract. Callbacks run synchronously on the pair's scheduler.
// p is a pair built from the implementing configuration.
type StateCorruptor interface {
	CorruptState(p *Pair, rng *sim.RNG)
}

// GhostForger builds one well-formed forged frame for the corruption
// adversary (faults kind "ghost"): a frame that passes the engine's CRC and
// kind checks but carries fabricated sequence/serial/ack state drawn from
// rng and from the engine's own live state (which is what makes the forgery
// adversarial rather than noise). toReceiver selects the direction: true
// forges data-channel traffic toward the receiver, false forges
// acknowledgement-channel traffic toward the sender. The returned frame is a
// plain allocation the caller owns (the injector Sends it — the pipe copies —
// and lets it go; it belongs to no free list, so it is never Put); nil skips
// the tick for that direction.
type GhostForger interface {
	ForgeGhost(p *Pair, rng *sim.RNG, toReceiver bool) *frame.Frame
}

// StabilizationBound exposes an engine configuration's convergence bound:
// the longest interval after the corruption era closes within which the
// engine must return to legal executions (Dolev-style self-stabilization
// for ssarq; a measured, derivation-backed bound for the legacy engines —
// DESIGN.md §13 derives each). The invariant checker excuses violations
// timestamped inside the corruption era plus this bound and enforces
// everything after it.
type StabilizationBound interface {
	ConvergenceBound() sim.Duration
}
