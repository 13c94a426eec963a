package channel

import (
	"math"
	"time"

	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/orbit"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Handler consumes frames arriving at the far end of a pipe.
//
// Ownership: an information frame (I, HDLC-I) becomes the handler's — it may
// retain the *Frame and its Payload indefinitely, and SHOULD return it with
// frame.Put once done with the header (the Payload may outlive the frame:
// Put drops the reference, it does not scrub the bytes). Control frames and
// frames marked Corrupted are recycled by the pipe as soon as the handler
// returns; a handler must never Put one of those, and one that wants to
// keep one must copy it, Payload and NAKs included. Every protocol entity in
// this repository consumes control frames within the callback.
type Handler func(now sim.Time, f *frame.Frame)

// DelayFn returns the one-way propagation delay for a frame departing the
// wire at the given instant. Constant-delay and orbit-driven helpers below.
type DelayFn func(at sim.Time) sim.Duration

// Tap observes pipe activity for tracing. event is one of "tx" (frame
// entered the wire), "rx" (delivered), "drop" (lost), "corrupt" (marked
// corrupted). The frame must not be retained or mutated.
type Tap func(now sim.Time, event string, f *frame.Frame)

// ConstantDelay returns a DelayFn with a fixed propagation delay.
func ConstantDelay(d sim.Duration) DelayFn {
	return func(sim.Time) sim.Duration { return d }
}

// OrbitDelay derives the propagation delay from an orbital link, with
// simulation time mapped 1:1 onto orbital time offset by epoch. The link's
// time-invariant geometry is evaluated here, once, not per frame.
func OrbitDelay(l orbit.Link, epoch time.Duration) DelayFn {
	pl := l.Prepare()
	return func(at sim.Time) sim.Duration {
		return orbit.PropagationDelay(pl.RangeM(epoch + time.Duration(at)))
	}
}

// PipeConfig parameterizes one direction of a link.
type PipeConfig struct {
	// RateBps is the wire data rate in bits per second (300e6–1e9 in the
	// paper's environment). Zero or negative means infinite rate (zero
	// transmission time), used by analytical-validation scenarios.
	RateBps float64
	// Delay gives the one-way propagation delay. Nil means zero delay.
	Delay DelayFn
	// IModel and CModel are the error processes applied to information and
	// control frames respectively (assumption 4: separate FEC strengths).
	// Nil means Perfect.
	IModel, CModel ErrorModel
	// IModelSpec and CModelSpec name the error processes by registry spec
	// ("fixed:p=0.05", "ge:...", "trace:file=..."; see ParseModel). A spec
	// is resolved inside NewPipe to a FRESH instance per pipe — exactly
	// what stateful models (Gilbert-Elliott sojourns, replay cursors) need,
	// since instances must never be shared across pipes. The instance
	// fields above take precedence when non-nil (programmatic use); a
	// malformed spec panics in NewPipe, a wiring error like a nil
	// scheduler — layers taking specs from users validate with ParseModel
	// first.
	IModelSpec, CModelSpec string
	// IExpansion and CExpansion scale the wire occupancy of information
	// and control frames for the FEC code rate (fec.Scheme.Overhead):
	// coded redundancy costs real transmission time, which is the other
	// side of the hybrid ARQ/FEC trade the paper's §1–2 survey discusses.
	// Zero means 1 (no expansion).
	IExpansion, CExpansion float64
	// Tap, when non-nil, observes every pipe event for tracing.
	Tap Tap
	// Metrics, when non-nil, receives the channel-layer counters
	// (channel_frames_*_total, channel_bits_sent_total) and the wire
	// queueing-delay histogram. The two directions of a link share one
	// registry and therefore one set of instruments: the channel metrics
	// are per-link aggregates.
	Metrics *metrics.Registry
}

// PipeStats counts traffic for reports and invariant checks.
//
// Ownership under the shard engine (remote pipes): every field except
// FramesDelivered and FramesLost is written only by Send, i.e. by the
// shard owning the transmit side; FramesDelivered and FramesLost are
// written only by DeliverInbound, i.e. by the shard owning the receive
// side — except that a send into a down pipe counts into FramesLostTx
// (transmit-owned) instead, so the two shards never touch the same
// counter. Total losses for a remote pipe are FramesLost + FramesLostTx;
// local pipes never touch FramesLostTx.
type PipeStats struct {
	FramesSent      stats.Counter
	FramesDelivered stats.Counter
	FramesLost      stats.Counter // dropped during link failure
	FramesLostTx    stats.Counter // remote pipes only: dropped at send while down
	BitsSent        stats.Counter
	CFrames         stats.Counter
}

// Pipe is one direction of a point-to-point link: an exclusive-use serial
// wire (frames transmit back to back at RateBps) followed by a propagation
// delay. FIFO delivery is guaranteed even with time-varying delay — a frame
// never overtakes its predecessor, matching a physical serial medium.
type Pipe struct {
	sched   *sim.Scheduler
	frames  *frame.List // sched's free list: where Send takes in-flight copies from
	cfg     PipeConfig
	rng     *sim.RNG
	handler Handler

	busyUntil   sim.Time // when the wire frees up
	lastArrival sim.Time // FIFO watermark
	down        bool
	// rxDown is the receive side's own down flag, used instead of down by
	// DeliverInbound when the pipe is remote (post != nil): the two ends of
	// a remote pipe live on different shards, so each side owns its flag
	// and a handover toggles both through events on the respective shard.
	// (Two bytes of one word: the shards write different bytes, and the
	// struct stays in its size class with the frames pointer added.)
	rxDown bool

	// Non-FIFO window (faults kind "reorder"): while reorderJitter > 0
	// every frame's arrival gains a counter-hashed extra delay in
	// [0, reorderJitter) and the FIFO clamp is suspended, so frames overtake
	// each other deterministically — no randomness is consumed, mirroring
	// the burst gate's contract. reorderSeq feeds the hash and never resets,
	// so repeated windows keep drawing fresh jitter.
	reorderJitter sim.Duration
	reorderSeq    uint64
	reordered     *metrics.Counter
	// post, when non-nil, marks the pipe remote: its transmit side and its
	// receive side (handler) run on different schedulers. Send hands the
	// in-flight frame and its arrival time to post — the shard engine's
	// mailbox — instead of scheduling the arrival locally; the receiving
	// shard later calls DeliverInbound. Installed once before the
	// simulation starts and read-only afterwards.
	post func(at sim.Time, f *frame.Frame)

	// deliverFn is p.deliver bound once at construction, so every arrival
	// can be scheduled through ScheduleArgDetached with the in-flight
	// frame as the argument — no per-send closure.
	deliverFn func(any)

	// Registry-backed instruments (nil without PipeConfig.Metrics).
	mSent      *metrics.Counter
	mDelivered *metrics.Counter
	mCorrupted *metrics.Counter
	mLost      *metrics.Counter
	mBits      *metrics.Counter
	mQueueNS   *metrics.Histogram

	Stats PipeStats
}

// frameLists gives every scheduler's run memory one frame free list, shared
// by all the pipes transmitting on that scheduler.
var frameLists = sim.NewLocal[frame.List]()

// Frames returns the free list that in-flight frames on sched are taken from
// and Put back to. A frame changes lists only by crossing to another
// scheduler's goroutine: the shard engine's mailbox drain Adopts it into the
// receiving shard's list before that shard can Put it.
func Frames(sched *sim.Scheduler) *frame.List { return frameLists.Of(sched) }

// wireQueueBuckets is computed once: a constellation builds thousands of
// pipes, most against a nil registry that would discard a fresh slice.
var wireQueueBuckets = metrics.ExpBuckets(1e3, 4, 16)

// NewPipe returns a pipe on the given scheduler. rng must not be shared with
// the reverse pipe if runs are to stay reproducible under refactoring.
func NewPipe(sched *sim.Scheduler, cfg PipeConfig, rng *sim.RNG) *Pipe {
	if sched == nil {
		panic("channel: nil scheduler")
	}
	if rng == nil {
		panic("channel: nil rng")
	}
	if cfg.Delay == nil {
		cfg.Delay = ConstantDelay(0)
	}
	if cfg.IModel == nil {
		cfg.IModel = specModel(cfg.IModelSpec)
	}
	if cfg.CModel == nil {
		cfg.CModel = specModel(cfg.CModelSpec)
	}
	p := &Pipe{sched: sched, frames: Frames(sched), cfg: cfg, rng: rng}
	p.deliverFn = p.deliver
	p.mSent = cfg.Metrics.Counter("channel_frames_sent_total")
	p.mDelivered = cfg.Metrics.Counter("channel_frames_delivered_total")
	p.mCorrupted = cfg.Metrics.Counter("channel_frames_corrupted_total")
	p.mLost = cfg.Metrics.Counter("channel_frames_lost_total")
	p.mBits = cfg.Metrics.Counter("channel_bits_sent_total")
	p.mQueueNS = cfg.Metrics.Histogram("channel_wire_queue_ns", wireQueueBuckets)
	return p
}

// specModel instantiates a model spec for one pipe ("" = Perfect).
func specModel(spec string) ErrorModel {
	newModel, err := ModelFactory(spec)
	if err != nil {
		panic(err)
	}
	return newModel()
}

// SetHandler installs the receiver callback. Frames arriving with no handler
// installed are counted as lost.
func (p *Pipe) SetHandler(h Handler) { p.handler = h }

// TxTime returns the serialization time of a frame at the pipe's rate,
// including the FEC expansion for its frame class.
func (p *Pipe) TxTime(f *frame.Frame) sim.Duration {
	exp := p.cfg.IExpansion
	if f.Kind.Control() {
		exp = p.cfg.CExpansion
	}
	if exp <= 0 {
		exp = 1
	}
	return sim.Duration(float64(p.TxTimeBits(f.Bits())) * exp)
}

// MinRateBps is the slowest link rate a Pipe models: at it, an I-frame of
// frame.MaxPayload bytes plus 64 bytes of framing (more than any engine's
// header and trailer) serializes in the longest time sim.Duration holds, and
// below it TxTimeBits overflows.
const MinRateBps = 8 * (frame.MaxPayload + 64) / (float64(math.MaxInt64) / float64(sim.Second))

// TxTimeBits returns the serialization time for a frame of the given length.
func (p *Pipe) TxTimeBits(bits int) sim.Duration {
	if p.cfg.RateBps <= 0 {
		return 0
	}
	return sim.Duration(float64(bits) / p.cfg.RateBps * float64(sim.Second))
}

// Send transmits a copy of f. The frame starts serializing when the wire is
// free, occupies it for TxTime, suffers the error process, propagates, and
// is delivered to the handler. Send never blocks; back-to-back sends queue
// on the wire, which is how the protocols' send pacing is modelled.
//
// The in-flight copy is shallow for the Payload: header fields are copied
// (so a retransmitting protocol may keep renumbering or re-flagging its own
// frame), but Payload aliases the caller's slice — the caller must not
// mutate those bytes after Send. Both protocols here satisfy this by
// construction: retransmissions build frames around an immutable datagram
// payload. Skipping the payload copy is what keeps a multi-gigabyte sweep
// from spending its time in memmove: at 1 KiB payloads the clone used to
// dominate the per-frame cost. The NAK list, by contrast, IS copied — into
// capacity the free list retains — so a checkpoint-emitting receiver may
// reuse its NAK scratch buffer across sends.
func (p *Pipe) Send(f *frame.Frame) {
	now := p.sched.Now()
	g := p.frames.Get(len(f.NAKs) > 0)
	naks := g.NAKs
	*g = *f
	g.NAKs = append(naks[:0], f.NAKs...)
	p.frames.Adopt(g) // after the copy, which brought f's home along
	p.Stats.FramesSent.Inc()
	p.Stats.BitsSent.Addn(uint64(g.Bits()))
	p.mSent.Inc()
	p.mBits.Add(uint64(g.Bits()))
	if p.down {
		// Frames launched into a dead link vanish (beam lost). The modem
		// squelches rather than serializes, so a dead-beam frame occupies
		// no wire time: the wire is immediately usable at restoration, and
		// an outage-era retransmission flood cannot leak airtime into
		// post-restoration queueing. Remote pipes count the drop into the
		// transmit-owned counter so the receive shard's FramesLost writes
		// never race with this one.
		if p.post != nil {
			p.Stats.FramesLostTx.Inc()
		} else {
			p.Stats.FramesLost.Inc()
		}
		p.mLost.Inc()
		if p.cfg.Tap != nil {
			p.cfg.Tap(now, "drop", g)
		}
		frame.Put(g)
		return
	}
	start := sim.MaxTime(now, p.busyUntil)
	tx := p.TxTime(g)
	depart := start.Add(tx)
	p.busyUntil = depart

	p.mQueueNS.Observe(float64(start.Sub(now)))
	model := p.cfg.IModel
	if g.Kind.Control() {
		p.Stats.CFrames.Inc()
		model = p.cfg.CModel
	}
	if p.cfg.Tap != nil {
		p.cfg.Tap(now, "tx", g)
	}
	if model.Corrupt(p.rng, start, depart, g.Bits()) {
		g.Corrupted = true
		p.mCorrupted.Inc()
		if p.cfg.Tap != nil {
			p.cfg.Tap(now, "corrupt", g)
		}
	}

	arrival := depart.Add(p.cfg.Delay(depart))
	if p.reorderJitter > 0 {
		p.reorderSeq++
		if extra := sim.Duration(reorderHash(p.reorderSeq) % uint64(p.reorderJitter)); extra > 0 {
			arrival = arrival.Add(extra)
			p.reordered.Inc()
		}
		// The FIFO clamp is suspended, but the watermark still advances:
		// frames sent after the window closes must not overtake a jittered
		// straggler, or the reordering would leak past its schedule.
		if arrival > p.lastArrival {
			p.lastArrival = arrival
		}
	} else {
		// Physical FIFO: with shrinking delay a later frame could compute an
		// earlier arrival; clamp to preserve ordering on the serial medium.
		if arrival <= p.lastArrival {
			arrival = p.lastArrival + 1
		}
		p.lastArrival = arrival
	}
	if p.post != nil {
		p.post(arrival, g)
		return
	}
	p.sched.ScheduleArgDetached(arrival, p.deliverFn, g)
}

// deliver hands an arrived in-flight frame to the handler. It is the local
// arrival-event callback, shared across all sends and invoked with the
// in-flight frame as the argument.
func (p *Pipe) deliver(v any) {
	p.DeliverInbound(p.sched.Now(), v.(*frame.Frame))
}

// DeliverInbound completes the arrival of an in-flight frame: it hands g to
// the handler, or counts it lost when the pipe is dead (rxDown for remote
// pipes, down for local ones) or handler-less. Local pipes reach it through
// their own arrival events; for remote pipes it is the re-entry point the
// shard engine calls — on the receiving shard's goroutine, with now set to
// the stamped arrival time — after the frame crossed the mailbox.
func (p *Pipe) DeliverInbound(now sim.Time, g *frame.Frame) {
	dead := p.rxDown || p.handler == nil
	if !dead && p.post == nil {
		// The shared down flag belongs to the transmit side; only a local
		// pipe (both ends on one scheduler) may read it here.
		dead = p.down
	}
	if dead {
		p.Stats.FramesLost.Inc()
		p.mLost.Inc()
		if p.cfg.Tap != nil {
			p.cfg.Tap(now, "drop", g)
		}
		frame.Put(g)
		return
	}
	p.Stats.FramesDelivered.Inc()
	p.mDelivered.Inc()
	if p.cfg.Tap != nil {
		p.cfg.Tap(now, "rx", g)
	}
	// Decide recycling before the handler runs: an information-frame
	// handler may Put the frame itself (see Handler), and reading g
	// afterwards would race with its reuse.
	recycle := g.Kind.Control() || g.Corrupted
	p.handler(now, g)
	if recycle {
		frame.Put(g)
	}
}

// SetReorder opens (jitter > 0) or closes (jitter = 0) a bounded non-FIFO
// delivery window: see the reorderJitter field for the mechanics. reordered,
// when non-nil, counts each frame actually delayed (nil-safe). Frames
// already scheduled keep their arrivals; only subsequent sends jitter.
func (p *Pipe) SetReorder(jitter sim.Duration, reordered *metrics.Counter) {
	p.reorderJitter = jitter
	p.reordered = reordered
}

// reorderHash is the splitmix64 finalizer over the pipe's send counter: a
// deterministic, well-mixed jitter source that costs no RNG draws.
func reorderHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SetDown marks the pipe dead (true) or alive (false). Frames already in
// flight when the pipe goes down are lost at arrival time; frames sent while
// down are lost immediately, without occupying wire time.
//
// For a remote pipe this flag governs only the transmit side (sends while
// down); the receive side's in-flight losses are governed by SetRxDown,
// which the owning shard must toggle with its own event at the same instant.
func (p *Pipe) SetDown(down bool) { p.down = down }

// SetRxDown marks the receive side of a remote pipe dead or alive. It must
// only be called from the shard owning the pipe's handler (or before the
// simulation starts). Local pipes never need it: their DeliverInbound reads
// the shared down flag directly.
func (p *Pipe) SetRxDown(down bool) { p.rxDown = down }

// SetRemote marks the pipe's two ends as living on different schedulers and
// installs the transport between them: Send will call post(arrival, frame)
// — on the transmit shard's goroutine — instead of scheduling the arrival
// locally, and the receiving shard is responsible for invoking
// DeliverInbound(arrival, frame) once its clock reaches the stamp. Must be
// installed before the simulation starts.
func (p *Pipe) SetRemote(post func(at sim.Time, f *frame.Frame)) { p.post = post }

// Link is a full-duplex connection: two independent pipes. By link-model
// assumption 2 all links are full duplex; the two directions may differ in
// error models (e.g. asymmetric FEC experiments) but normally share config.
type Link struct {
	AtoB, BtoA *Pipe
}

// NewLink builds a full-duplex link with per-direction RNG streams split
// from rng.
func NewLink(sched *sim.Scheduler, cfg PipeConfig, rng *sim.RNG) *Link {
	return &Link{
		AtoB: NewPipe(sched, cfg, rng.Split()),
		BtoA: NewPipe(sched, cfg, rng.Split()),
	}
}

// NewSplitLink builds a link whose two directions live on different
// schedulers: AtoB transmits from sendSched (the forward/data direction of
// a split DLC session), BtoA from recvSched (the reverse/control
// direction). A pipe's scheduler is its transmit-side clock — with
// SetRemote installed the arrival side never touches it — so each pipe is
// homed where its Send calls originate. Like NewAsymmetricLink it takes one
// config per direction, so a caller holding parsed models hands each pipe
// its own instances. Both directions still split their RNG streams from one
// rng, in the same order as NewLink, so a split link consumes randomness
// identically to a local one.
func NewSplitLink(sendSched, recvSched *sim.Scheduler, ab, ba PipeConfig, rng *sim.RNG) *Link {
	return &Link{
		AtoB: NewPipe(sendSched, ab, rng.Split()),
		BtoA: NewPipe(recvSched, ba, rng.Split()),
	}
}

// NewAsymmetricLink builds a link with distinct per-direction configs.
func NewAsymmetricLink(sched *sim.Scheduler, ab, ba PipeConfig, rng *sim.RNG) *Link {
	return &Link{
		AtoB: NewPipe(sched, ab, rng.Split()),
		BtoA: NewPipe(sched, ba, rng.Split()),
	}
}

// Fail kills both directions.
func (l *Link) Fail() {
	l.AtoB.SetDown(true)
	l.BtoA.SetDown(true)
}
