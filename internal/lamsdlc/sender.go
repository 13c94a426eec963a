package lamsdlc

import (
	"fmt"

	"repro/internal/arq"
	"repro/internal/arq/txq"
	"repro/internal/frame"
	"repro/internal/sim"
)

// Sender is the transmitting half of a LAMS-DLC endpoint. It is a sans-IO
// state machine driven by the scheduler's virtual clock and checkpoint
// arrivals; output goes to the wire. Not safe for concurrent use — drivers
// serialize all calls (the simulation is single-threaded; the live driver
// owns a per-endpoint event loop).
type Sender struct {
	// The sending buffer, keyed by the sequence number of each entry's
	// current incarnation (LAMS-DLC renumbers retransmissions). Enqueue
	// refuses at SendBufferCap and once the link has failed; the pacing
	// debt bound is one resolving period (see retransmit).
	txq.Queue

	sched *sim.Scheduler
	wire  arq.Wire
	cfg   Config
	m     *arq.Metrics
	im    senderInstr

	// Run-scoped scratch, recycled across checkpoints so the steady state
	// allocates nothing (ISSUE 6): the per-checkpoint naked-seq set is a
	// bitset spanning the live window, the retransmit decision list keeps
	// its capacity, and outbound frames are built in a reusable scratch
	// frame (the Wire contract says implementations copy on Send).
	nakBits []uint64
	retxBuf []retxDecision
	txf     frame.Frame

	// Flow-control send-rate fraction (§3.4): scales the pump's pacing.
	rateFraction float64

	// Checkpoint / failure supervision.
	cpTimer      *sim.Timer
	failTimer    *sim.Timer
	lastRxSerial uint32
	recovering   bool
	reqSerial    uint32
	retriesLeft  int
	startAt      sim.Time
	lastCpAt     sim.Time
	reqSentAt    sim.Time
	maxLiveSpan  uint32 // widest nextSeq − oldestUnacked observed

	onFailure arq.FailureFunc
}

// NewSender constructs a sender. metrics may be shared with the peer
// receiver; onFailure may be nil.
func NewSender(sched *sim.Scheduler, wire arq.Wire, cfg Config, m *arq.Metrics, onFailure arq.FailureFunc) *Sender {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Sender{
		sched:        sched,
		wire:         wire,
		cfg:          cfg,
		m:            m,
		im:           newSenderInstr(cfg.Metrics),
		rateFraction: 1,
		retriesLeft:  cfg.RequestRetries,
		onFailure:    onFailure,
	}
	s.im.rateFraction.Set(1)
	s.Queue = txq.New(sched, m, cfg.SendBufferCap, cfg.ResolvingPeriod(), s.pump,
		s.im.releases, s.im.holdingNS, s.im.outstanding)
	s.cpTimer = sim.NewTimer(sched, s.onCheckpointTimeout)
	s.failTimer = sim.NewTimer(sched, s.onFailureTimeout)
	return s
}

// Start records the link-activation instant (for LinkLifetime accounting)
// and arms the checkpoint timer with an initialization grace of the expected
// response time plus C_depth·W_cp. §3.2 arms the timer at the first
// checkpoint arrival, which presumes a separate link-initialization
// procedure; arming at Start closes the gap where a link that never comes up
// would never be declared failed.
func (s *Sender) Start() {
	s.startAt = s.sched.Now()
	s.cpTimer.Start(s.cfg.ExpectedResponse() + s.cfg.CheckpointTimerTimeout())
}

// SetProbe installs the transition observer; nil detaches. Install before
// Start: the probe is read synchronously by the state machine.
func (s *Sender) SetProbe(p *arq.Probe) { s.Probe = p }

// Failed reports whether the sender has declared the link failed.
func (s *Sender) Failed() bool { return s.Closed() }

// Recovering reports whether an Enforced Recovery is in progress (new
// I-frames suspended).
func (s *Sender) Recovering() bool { return s.recovering }

// RateFraction returns the current flow-control send-rate fraction.
func (s *Sender) RateFraction() float64 { return s.rateFraction }

// MaxLiveSpan returns the widest span of simultaneously live sequence
// numbers observed (next assignment minus the oldest unacknowledged). The
// numbering-size experiment checks it against the resolving-period bound of
// §2.3/§3.3.
func (s *Sender) MaxLiveSpan() uint32 { return s.maxLiveSpan }

func (s *Sender) noteSpan() {
	if s.Unacked() == 0 {
		return
	}
	if span := s.NextSeq() - s.InFlight()[0].Seq; span > s.maxLiveSpan {
		s.maxLiveSpan = span
	}
}

// sendI transmits e's current incarnation via the scratch frame, returning
// the frame for pacing math. The Wire contract (arq.Wire) says Send copies;
// the scratch is valid until the sender's next send.
func (s *Sender) sendI(e *txq.Entry) *frame.Frame {
	s.txf = frame.Frame{
		Kind:       frame.KindI,
		Seq:        e.Seq,
		DatagramID: e.Dg.ID,
		Payload:    e.Dg.Payload,
		EnqueuedNS: int64(e.Dg.EnqueuedAt),
	}
	s.wire.Send(&s.txf)
	return &s.txf
}

// pump transmits new I-frames while the protocol and pacing allow. New
// frames are paced at the wire rate scaled by the flow-control fraction;
// retransmissions bypass pacing (§4: retransmitted I-frames mix freely with
// transmissions).
func (s *Sender) pump() {
	// Suspended means suspended: Ready must not run during Enforced
	// Recovery, or it would keep re-arming the pump against the budget.
	if s.Closed() || s.recovering {
		return
	}
	now := s.sched.Now()
	if !s.Ready(now) || s.Backlog() == 0 {
		return
	}
	e := s.Admit(now)
	f := s.sendI(e)
	s.m.FirstTx.Inc()
	s.im.firstTx.Inc()
	if s.Probe != nil && s.Probe.FirstTransmission != nil {
		s.Probe.FirstTransmission(now, e.Seq, e.Dg.ID)
	}
	s.noteSpan()

	// Pace the next new frame: one frame time at the scaled rate.
	gap := sim.Duration(float64(s.wire.TxTime(f)) / s.rateFraction)
	s.FreeAt = now.Add(gap)
	if s.Backlog() > 0 {
		s.Kick(gap)
	}
}

// HandleFrame processes an arriving control frame. Information frames never
// arrive at a sender; the endpoint wiring routes frames by direction.
func (s *Sender) HandleFrame(now sim.Time, f *frame.Frame) {
	if s.Closed() {
		return
	}
	if f.Corrupted {
		return // undecodable; the periodic process retries implicitly
	}
	switch f.Kind {
	case frame.KindCheckpoint:
		s.handleCheckpoint(now, f)
	default:
		// A sender can legitimately see no other kinds; ignore garbage.
	}
}

func (s *Sender) handleCheckpoint(now sim.Time, f *frame.Frame) {
	// A watermark above anything ever transmitted cannot be a genuine
	// positive acknowledgement: either the frame is forged, or the
	// receiver's own watermark was poisoned past nextSeq by forged
	// I-frames. Trusting it would release every outstanding entry —
	// silently losing datagrams that were never delivered. Distrust ONLY
	// the watermark (effAck = 0 disables releases this round) and keep
	// processing everything else: the liveness re-arm, the NAK list
	// (window-checked, so worst case is a spurious retransmission), and
	// the enforced-recovery correlation. Discarding the whole frame
	// instead would wedge a live link whose receiver watermark ran ahead
	// — every checkpoint would read as silence, recovery would halt the
	// pump, and nextSeq could never catch up to re-legitimize the
	// watermark.
	effAck := f.Ack
	if f.Ack > s.NextSeq() {
		effAck = 0
		s.im.implausibleCp.Inc()
	}
	// Any readable checkpoint proves the receiver is alive: re-arm the
	// checkpoint timer (§3.2: reset to zero after each Check-Point).
	s.lastCpAt = now
	s.cpTimer.Start(s.cfg.CheckpointTimerTimeout())
	s.im.cpHeard.Inc()
	s.im.naksHeard.Add(uint64(len(f.NAKs)))
	if s.Probe != nil && s.Probe.CheckpointHeard != nil {
		s.Probe.CheckpointHeard(now, f.Serial, f.Enforced)
	}

	// Coverage tracking: each error is reported in C_depth consecutive
	// checkpoints. If the serial jumped by more than C_depth, at least one
	// error report generation may have been lost entirely, so watermark
	// releases below are unsafe this round (DESIGN.md §4.2).
	// Receiver serials start at 1 and lastRxSerial at 0, so the jump to the
	// first checkpoint heard is measured like any other: a session whose
	// first C_depth+1 checkpoints are all lost is not covered either.
	covered := true
	if f.Serial > s.lastRxSerial {
		covered = f.Serial-s.lastRxSerial <= uint32(s.cfg.CumulationDepth)
		s.lastRxSerial = f.Serial
	}

	// Naked-sequence lookup as a bitset over the live window [base,
	// nextSeq): the live span is bounded by the numbering size (§2.3), so
	// the bitset is small, and it recycles across checkpoints where the
	// old per-checkpoint map allocated. Stale NAKs naming retired seqs
	// fall outside the window and are dropped here, exactly as they
	// missed the old map.
	var nakBase, nakSpan uint32
	if len(f.NAKs) > 0 && s.Unacked() > 0 {
		nakBase = s.InFlight()[0].Seq
		nakSpan = s.NextSeq() - nakBase
		words := int(nakSpan+63) / 64
		if cap(s.nakBits) < words {
			s.nakBits = make([]uint64, words)
		} else {
			s.nakBits = s.nakBits[:words]
			clear(s.nakBits)
		}
		for _, n := range f.NAKs {
			if d := n - nakBase; d < nakSpan {
				s.nakBits[d>>6] |= 1 << (d & 63)
			}
		}
	}

	// Flow control (§3.4): every checkpoint adjusts the rate.
	s.applyStopGo(f.StopGo)

	if f.Enforced {
		s.im.enforcedHeard.Inc()
	}
	if s.recovering {
		// Monotone-clock repair: reqSentAt can only sit in the future if
		// state corruption wrote it there, and a future solicitation
		// instant disables the overdue-response re-solicit below (and the
		// free retry in onFailureTimeout) indefinitely. Clamping to now
		// restores the invariant every later comparison assumes; the cost
		// is at most one ExpectedResponse of extra patience.
		if s.reqSentAt > now {
			s.reqSentAt = now
		}
		if f.Enforced {
			// Enforced-NAK / Resolving command answers our Request-NAK and
			// ends Enforced Recovery. The C_depth·W_cp silence window
			// restarts from this response (the unconditional cpTimer.Start
			// above), not from the original Request-NAK.
			s.failTimer.Stop()
			s.recovering = false
			s.retriesLeft = s.cfg.RequestRetries
			if s.Probe != nil && s.Probe.RecoveryEnded != nil {
				s.Probe.RecoveryEnded(now, true)
			}
		} else if now.Sub(s.reqSentAt) >= s.cfg.ExpectedResponse() {
			// A plain checkpoint during recovery, arriving after the
			// outstanding solicitation's response is already overdue,
			// proves the receiver alive and the Request-NAK (or its
			// Enforced-NAK) lost. Solicit again immediately — §3.2 keeps
			// new I-frames suspended until the enforced response, so
			// waiting out the rest of the failure timer before re-asking
			// stalled a demonstrably live link for up to a FailureTimeout
			// after a checkpoint blackout ended. Re-arming from here also
			// restarts the failure timer, so the silence window is always
			// measured from the latest solicitation. Bounded to one
			// solicitation per heard checkpoint (W_cp apart) and gated on
			// the overdue response, this cannot storm. The retry budget is
			// not consumed: it guards against a genuinely silent peer.
			s.sendRequestNAK()
		}
	}

	// Walk the buffer once, deciding each entry's fate: kept, released, or
	// dropped onto the retransmission list, which reuses its backing array,
	// so the walk itself allocates nothing.
	resolving := s.cfg.ResolvingPeriod()
	retransmit := s.retxBuf[:0]
	s.Sweep(func(e *txq.Entry) bool {
		d := e.Seq - nakBase
		isNaked := nakSpan > 0 && d < nakSpan && s.nakBits[d>>6]&(1<<(d&63)) != 0
		switch {
		case isNaked:
			// First notification for this incarnation: retransmit under
			// a new number. (Stale NAKs name retired seqs and miss.)
			retransmit = append(retransmit, retxDecision{e, arq.RetxNAK})
			s.im.retxNAK.Inc()
		case e.Seq < effAck && covered:
			// Covered positive acknowledgement: release buffer space.
			s.Release(now, e)
		case e.Seq < effAck && !covered:
			// Watermark says delivered but the report chain is broken;
			// retransmit rather than risk loss (duplicates are resolved
			// downstream). Frames still in flight are left alone.
			if now.Sub(e.LastTx) < s.cfg.RoundTrip {
				return true
			}
			retransmit = append(retransmit, retxDecision{e, arq.RetxCoverage})
			s.im.retxCoverage.Inc()
		case f.Enforced && now.Sub(e.LastTx) >= s.cfg.RoundTrip:
			// Enforced recovery: the receiver has never seen this frame
			// although it has had a full round trip to arrive — resend.
			retransmit = append(retransmit, retxDecision{e, arq.RetxEnforced})
			s.im.retxEnforced.Inc()
		case now.Sub(e.LastTx) >= resolving:
			// Resolving-period timeout (§3.3): an unreported frame this
			// old can only be a corrupted trailing frame with no
			// successor to reveal the gap.
			retransmit = append(retransmit, retxDecision{e, arq.RetxResolving})
			s.im.retxResolving.Inc()
		default:
			return true
		}
		return false
	})
	s.retxBuf = retransmit
	for _, d := range retransmit {
		s.retransmit(now, d.e, d.cause)
	}
	if s.Unacked() > 0 {
		s.im.liveSpan.Observe(float64(s.NextSeq() - s.InFlight()[0].Seq))
	}
	s.noteSpan()
	s.Kick(0)
}

// retxDecision pairs a buffer entry with the reason the checkpoint walk
// chose to retransmit it.
type retxDecision struct {
	e     *txq.Entry
	cause arq.RetxCause
}

// retransmit re-sends e under a fresh sequence number, back on the buffer.
func (s *Sender) retransmit(now sim.Time, e *txq.Entry, cause arq.RetxCause) {
	old := e.Seq
	s.Renumber(now, e)
	f := s.sendI(e)
	s.m.Retransmissions.Inc()
	s.im.retx.Inc()
	if s.Probe != nil && s.Probe.Retransmitted != nil {
		s.Probe.Retransmitted(now, old, e.Seq, e.Dg.ID, cause)
	}
	// Retransmissions jump the pacing queue (§4: they mix freely with
	// transmissions) but still consume send-rate budget; without this,
	// under overload, unpaced retransmissions inflate the wire backlog
	// past the resolving period and false resolving timeouts feed a
	// retransmission storm. Charge bounds the debt at one resolving period
	// (the queue's debt), for the reason written there.
	s.Charge(now, s.wire.TxTime(f))
}

func (s *Sender) applyStopGo(stop bool) {
	old := s.rateFraction
	if stop {
		s.rateFraction *= rateDecrease
		if s.rateFraction < minRateFraction {
			s.rateFraction = minRateFraction
		}
	} else if s.rateFraction < 1 {
		s.rateFraction *= rateIncrease
		if s.rateFraction > 1 {
			s.rateFraction = 1
		}
	}
	if s.rateFraction != old {
		s.m.RateChanges.Inc()
		s.im.rateChanges.Inc()
		s.im.rateFraction.Set(s.rateFraction)
	}
}

// onCheckpointTimeout fires when C_depth·W_cp passed with no checkpoint:
// the sender suspects link failure and begins Enforced Recovery (§3.2).
func (s *Sender) onCheckpointTimeout() {
	if s.Closed() || s.recovering {
		return
	}
	if !s.recoverableFailure() {
		s.declareFailure("link lifetime exhausted before enforced recovery could complete")
		return
	}
	s.startEnforcedRecovery()
}

func (s *Sender) startEnforcedRecovery() {
	s.recovering = true
	if s.Probe != nil && s.Probe.RecoveryStarted != nil {
		s.Probe.RecoveryStarted(s.sched.Now())
	}
	s.sendRequestNAK()
}

func (s *Sender) sendRequestNAK() {
	s.reqSerial++
	s.reqSentAt = s.sched.Now()
	if s.Probe != nil && s.Probe.RequestNAKSent != nil {
		s.Probe.RequestNAKSent(s.reqSentAt, s.reqSerial)
	}
	s.txf = frame.Frame{Kind: frame.KindRequestNAK, Serial: s.reqSerial}
	s.wire.Send(&s.txf)
	s.m.ControlSent.Inc()
	s.m.Recoveries.Inc()
	s.im.reqNAKs.Inc()
	s.im.recoveries.Inc()
	s.failTimer.Start(s.cfg.FailureTimeout())
}

// recoverableFailure implements §3.2's "provided that the expected response
// time is within the remaining link lifetime".
func (s *Sender) recoverableFailure() bool {
	if s.cfg.LinkLifetime <= 0 {
		return true
	}
	elapsed := s.sched.Now().Sub(s.startAt)
	remaining := s.cfg.LinkLifetime - elapsed
	return s.cfg.ExpectedResponse() <= remaining
}

func (s *Sender) onFailureTimeout() {
	if s.Closed() {
		return
	}
	// Same monotone-clock repair as the recovery branch of
	// handleCheckpoint: a corrupted future reqSentAt must not turn the
	// live-receiver free retry below into a budgeted one.
	if now := s.sched.Now(); s.reqSentAt > now {
		s.reqSentAt = now
	}
	// If regular checkpoints arrived after the Request-NAK went out, the
	// receiver is demonstrably alive and only the Request-NAK or its
	// Enforced-NAK was lost on the noisy channel: solicit again rather
	// than declare a live link dead. This does not consume the retry
	// budget — the budget guards against a genuinely silent peer.
	if s.lastCpAt > s.reqSentAt && s.recoverableFailure() {
		s.sendRequestNAK()
		return
	}
	if s.retriesLeft > 0 && s.recoverableFailure() {
		s.retriesLeft--
		s.sendRequestNAK()
		return
	}
	s.declareFailure(fmt.Sprintf("no enforced-NAK within %v of request-NAK", s.cfg.FailureTimeout()))
}

func (s *Sender) declareFailure(reason string) {
	s.Shutdown()
	s.m.Failures.Inc()
	s.im.failures.Inc()
	if s.Probe != nil && s.Probe.FailureDeclared != nil {
		s.Probe.FailureDeclared(s.sched.Now(), reason)
	}
	if s.onFailure != nil {
		s.onFailure(s.sched.Now(), reason)
	}
}

// Shutdown stops all timers and refuses further work without declaring a
// failure: orderly link teardown at the end of a pass (the session layer
// reclaims UnreleasedDatagrams for the next pass).
func (s *Sender) Shutdown() {
	s.Close()
	s.recovering = false
	s.cpTimer.Stop()
	s.failTimer.Stop()
}
