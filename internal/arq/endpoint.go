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

// Pair is the engine contract every layer above the protocols programs
// against: a wired sender/receiver pair running one ARQ engine over one
// full-duplex link. PairBase is its one implementation; each engine's Pair
// embeds it next to its typed halves and adds the capability interfaces
// below. The node, session, bench, and faults layers consume it, so any
// registered engine runs in any topology or harness.
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
type Pair interface {
	// Start activates both ends.
	Start()
	// Stop is orderly teardown: the link is going away (end of pass), not
	// failing. Timers stop, new work is refused, no failure callback fires.
	Stop()
	// Enqueue accepts a datagram from the network layer. False means the
	// engine refused it (buffer at capacity, or the engine failed/stopped).
	Enqueue(dg Datagram) bool
	// Reclaim returns the datagrams the engine still holds (queued or
	// unacknowledged), oldest first.
	Reclaim() []Datagram
	// Outstanding returns the sending-buffer occupancy: unacknowledged
	// frames plus queued datagrams.
	Outstanding() int
	// Failed reports whether the engine declared the link failed (or was
	// stopped).
	Failed() bool
	// Metrics exposes the pair's shared measurement block.
	Metrics() *Metrics
	// Link exposes the underlying simulated link (tests inject failures,
	// the session layer fails it at pass end).
	Link() *channel.Link
	// SetProbe installs the transition observer on both ends; nil
	// detaches. Install before Start. Engines fire the callbacks that
	// exist in their state machine and skip the rest, which is how the
	// invariant checker's applicable subset follows the protocol.
	SetProbe(p *Probe)
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
	Failed() bool
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

// PairBase is the one implementation of the Pair contract: it forwards to
// an engine's two halves and owns the pair's measurement blocks. An engine's
// Pair embeds it; PairMetrics and NewPairBase make the constructor.
type PairBase struct {
	sender   SenderHalf
	receiver ReceiverHalf
	link     *channel.Link
	metrics  *Metrics
	// rmetrics is non-nil only for a split pair: the receiver entity runs
	// on another scheduler and has its own block; Metrics merges the two on
	// demand into merged.
	rmetrics *Metrics
	merged   Metrics
}

// PairMetrics returns the measurement blocks for a pair whose sender entity
// runs on sendSched and whose receiver entity runs on recvSched. On one
// scheduler the two share ONE block, and Pair.Metrics returns that pointer
// for the pair's whole life (bench.Run holds it across the run). On two —
// a crosslink session whose satellites live on different shards — each
// entity gets its own, so the two goroutines never write the same counter.
func PairMetrics(sendSched, recvSched *sim.Scheduler) (sender, receiver *Metrics) {
	sender = &Metrics{}
	if sendSched == recvSched {
		return sender, sender
	}
	return sender, &Metrics{}
}

// NewPairBase connects the two halves across link — I-frames flow A→B into
// receiver, acknowledgement traffic B→A into sender — and returns the pair
// over them. ms and mr are the blocks the halves were built with
// (PairMetrics). For a split pair the caller routes link.AtoB to the
// receiver's shard and link.BtoA back (channel.Pipe.SetRemote).
func NewPairBase(link *channel.Link, sender SenderHalf, receiver ReceiverHalf, ms, mr *Metrics) PairBase {
	link.AtoB.SetHandler(receiver.HandleFrame)
	link.BtoA.SetHandler(sender.HandleFrame)
	p := PairBase{sender: sender, receiver: receiver, link: link, metrics: ms}
	if mr != ms {
		p.rmetrics = mr
	}
	return p
}

// Start activates both ends, sender first.
func (p *PairBase) Start() {
	p.sender.Start()
	p.receiver.Start()
}

// Stop is orderly teardown: the receiver's periodic process halts, then the
// sender refuses further work; undelivered datagrams stay reclaimable.
func (p *PairBase) Stop() {
	p.receiver.Stop()
	p.sender.Shutdown()
}

// Enqueue accepts a datagram from the network layer.
func (p *PairBase) Enqueue(dg Datagram) bool { return p.sender.Enqueue(dg) }

// Reclaim returns the datagrams the sender still holds, oldest first.
func (p *PairBase) Reclaim() []Datagram { return p.sender.UnreleasedDatagrams() }

// Outstanding returns the sending-buffer occupancy.
func (p *PairBase) Outstanding() int { return p.sender.Outstanding() }

// Failed reports whether the sender declared the link failed or was stopped.
func (p *PairBase) Failed() bool { return p.sender.Failed() }

// Metrics exposes the pair's measurement block. For a split pair the two
// per-entity blocks are merged on demand; call only while both shards are
// quiesced (between rounds or after the run).
func (p *PairBase) Metrics() *Metrics {
	if p.rmetrics == nil {
		return p.metrics
	}
	p.merged = MergeSplit(p.metrics, p.rmetrics)
	return &p.merged
}

// Link exposes the underlying simulated link.
func (p *PairBase) Link() *channel.Link { return p.link }

// SetProbe installs the transition observer on both ends.
func (p *PairBase) SetProbe(pr *Probe) {
	p.sender.SetProbe(pr)
	p.receiver.SetProbe(pr)
}

// Optional capability interfaces, discovered by type assertion on a Pair.
// They keep the core contract small: a consumer that needs a
// protocol-specific surface asserts for it and degrades gracefully when the
// engine lacks it.

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
type StateCorruptor interface {
	CorruptState(rng *sim.RNG)
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
	ForgeGhost(rng *sim.RNG, toReceiver bool) *frame.Frame
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
