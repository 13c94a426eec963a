package hdlc

import (
	"fmt"

	"repro/internal/arq"
	"repro/internal/arq/txq"
	"repro/internal/frame"
	"repro/internal/sim"
)

// Sender is the transmitting half of an HDLC endpoint: window-limited
// transmission, SREJ/REJ-driven retransmission, cumulative release on RR,
// and timeout recovery with P-bit polls.
type Sender struct {
	// The sending buffer; its in-flight list is the window. HDLC never
	// renumbers, so an entry's Seq is stable for the frame's lifetime.
	// Unlike LAMS-DLC there is no transparent bound: Enqueue refuses only a
	// failed or shut-down sender and the backlog grows as the analysis
	// predicts, so the caller measures rather than limits it. The pacing
	// debt is at most one frame time in normal operation; its bound is one
	// T1 period. HDLC promises in-order delivery, so — unlike LAMS-DLC — a
	// datagram UnreleasedDatagrams returns from the window may in fact have
	// reached the receiver; exactly-once across passes is then the
	// resequencer's job, as §2.3 assigns it.
	txq.Queue

	sched *sim.Scheduler
	wire  arq.Wire
	cfg   Config
	m     *arq.Metrics
	im    senderInstr

	sendBase uint32

	// Outbound frames are built in a reusable scratch (the Wire contract
	// copies on Send), mirroring the LAMS-DLC sender (ISSUE 6). pacef is a
	// separate scratch for the TxTime pacing probes so they cannot disturb
	// an in-flight txf between Send and TxTime.
	txf   frame.Frame
	pacef frame.Frame

	retryTimer *sim.Timer

	// Stutter mode.
	stutterTimer *sim.Timer
	stutterIdx   int
	stutters     uint64

	// Failure supervision: consecutive T1 expiries with no supervisory
	// frame heard (the N2 retry count of real HDLC). Zero MaxTimeouts
	// disables declaration.
	timeoutsInRow int
	onFailure     arq.FailureFunc
}

// NewSender constructs an HDLC sender.
func NewSender(sched *sim.Scheduler, wire arq.Wire, cfg Config, m *arq.Metrics) *Sender {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Sender{sched: sched, wire: wire, cfg: cfg, m: m, im: newSenderInstr(cfg.Metrics)}
	s.Queue = txq.New(sched, m, 0, cfg.Timeout, s.pump, s.im.releases, s.im.holdingNS, s.im.outstanding)
	s.retryTimer = sim.NewTimer(sched, s.onTimeout)
	s.stutterTimer = sim.NewTimer(sched, s.stutter)
	return s
}

// Stutters returns the number of idle-time stutter retransmissions sent.
func (s *Sender) Stutters() uint64 { return s.stutters }

// SetOnFailure installs the failure callback (the LAMS-DLC sender's
// constructor takes it; a setter here so the raw constructor signature the
// benchmark compiles against stays put). Config.NewSender is its one caller.
// Install before Start.
func (s *Sender) SetOnFailure(fn arq.FailureFunc) { s.onFailure = fn }

// SetProbe installs the transition observer; nil detaches. HDLC fires the
// transmission-lifecycle callbacks (FirstTransmission, Retransmitted with
// oldSeq == newSeq, Released, FailureDeclared); the checkpoint/recovery
// callbacks have no HDLC transition and never fire.
func (s *Sender) SetProbe(p *arq.Probe) { s.Probe = p }

// Failed reports whether the sender declared the link failed (or was shut
// down).
func (s *Sender) Failed() bool { return s.Closed() }

// Start is a no-op for symmetry with the LAMS-DLC sender.
func (s *Sender) Start() {}

// SendBase exposes the lowest unacknowledged sequence number.
func (s *Sender) SendBase() uint32 { return s.sendBase }

// windowFull reports whether the window has no room for a new frame.
func (s *Sender) windowFull() bool { return s.Unacked() >= s.cfg.WindowSize }

// pump transmits while the window has room.
func (s *Sender) pump() {
	now := s.sched.Now()
	if !s.Ready(now) {
		return
	}
	if s.Backlog() == 0 || s.windowFull() {
		s.maybeStutter()
		return
	}
	e := s.Admit(now)
	// The frame that fills the window carries the P bit: ask the receiver
	// for an RR checkpoint so the window can turn over.
	s.transmit(e, s.windowFull() || s.Backlog() == 0, false, 0)
	if s.Probe != nil && s.Probe.FirstTransmission != nil {
		s.Probe.FirstTransmission(now, e.Seq, e.Dg.ID)
	}
	// Historical pacing quirk, kept bit-for-bit: the pacing probe is a
	// plain I-frame header (frame.NewI sizing), not an HDLC-I one.
	s.pacef = frame.Frame{Kind: frame.KindI, Payload: e.Dg.Payload}
	tx := s.wire.TxTime(&s.pacef)
	s.FreeAt = now.Add(tx)
	if s.Backlog() > 0 {
		s.Kick(tx)
	}
}

// transmit sends (or resends) e and restarts T1 (the single HDLC
// acknowledgment timer). cause classifies a retransmission for the probe;
// it is ignored when retx is false (HDLC keeps the original number, so the
// probe sees oldSeq == newSeq).
func (s *Sender) transmit(e *txq.Entry, final, retx bool, cause arq.RetxCause) {
	s.txf = frame.Frame{
		Kind:       frame.KindHDLCI,
		Seq:        e.Seq,
		Payload:    e.Dg.Payload,
		DatagramID: e.Dg.ID,
		Final:      final,
		EnqueuedNS: int64(e.Dg.EnqueuedAt),
	}
	s.wire.Send(&s.txf)
	if retx {
		s.m.Retransmissions.Inc()
		s.im.retx.Inc()
		if s.Probe != nil && s.Probe.Retransmitted != nil {
			s.Probe.Retransmitted(s.sched.Now(), e.Seq, e.Seq, e.Dg.ID, cause)
		}
	} else {
		s.m.FirstTx.Inc()
		s.im.firstTx.Inc()
	}
	s.restartT1()
}

// restartT1 re-arms the acknowledgment timer. HDLC runs a single T1 timer:
// it is (re)started on every transmission and on every supervisory frame
// received, and stopped when the window drains.
func (s *Sender) restartT1() {
	if s.Unacked() == 0 {
		s.retryTimer.Stop()
		return
	}
	s.retryTimer.Start(s.cfg.Timeout)
}

// maybeStutter arms the stutter process: when new transmission is blocked
// but unacknowledged frames exist, the idle wire repeats them cyclically at
// the frame rate.
func (s *Sender) maybeStutter() {
	if !s.cfg.Stutter || s.Unacked() == 0 || s.stutterTimer.Active() {
		return
	}
	idle := s.FreeAt.Sub(s.sched.Now())
	if idle < 0 {
		idle = 0
	}
	s.stutterTimer.Start(idle)
}

// stutter repeats one unacknowledged frame and re-arms while the sender
// remains otherwise idle.
func (s *Sender) stutter() {
	window := s.InFlight()
	if len(window) == 0 {
		return
	}
	// New traffic has priority: if a frame could be sent normally, yield.
	if s.Backlog() > 0 && !s.windowFull() {
		s.Kick(0)
		return
	}
	if s.stutterIdx >= len(window) {
		s.stutterIdx = 0
	}
	e := window[s.stutterIdx]
	s.stutterIdx++
	s.stutters++
	s.im.stutterRetx.Inc()
	s.transmit(e, s.stutterIdx == len(window), true, arq.RetxStutter)
	// A stutter overwrites the budget rather than charging it: it runs on
	// an idle wire by construction, and a FreeAt left ahead of the clock
	// can only be corruption, which this repairs.
	s.pacef = frame.Frame{Kind: frame.KindHDLCI, Payload: e.Dg.Payload}
	tx := s.wire.TxTime(&s.pacef)
	s.FreeAt = s.sched.Now().Add(tx)
	s.stutterTimer.Start(tx)
}

// onTimeout performs HDLC checkpoint (timeout) retransmission: resend the
// oldest unacknowledged I-frame with the P bit set, soliciting an RR that
// reveals the receiver's true state (§4: timeout recovery governs the
// retransmission periods, with one frame per period). Each expiry with no
// intervening supervisory frame counts against N2 (MaxTimeouts); exhausting
// it declares link failure.
func (s *Sender) onTimeout() {
	if s.Unacked() == 0 {
		return
	}
	s.timeoutsInRow++
	if s.cfg.MaxTimeouts > 0 && s.timeoutsInRow > s.cfg.MaxTimeouts {
		s.declareFailure()
		return
	}
	s.im.timeoutPolls.Inc()
	s.transmit(s.InFlight()[0], true, true, arq.RetxTimeout)
}

// declareFailure marks the link failed after N2 exhaustion: timers stop, new
// work is refused, and the unreleased datagrams stay reclaimable for
// carry-over, mirroring the LAMS-DLC failure path.
func (s *Sender) declareFailure() {
	if s.Closed() {
		return
	}
	s.Shutdown()
	s.m.Failures.Inc()
	s.im.failures.Inc()
	reason := fmt.Sprintf("N2 exhausted: %d consecutive T1 expiries", s.timeoutsInRow)
	if s.Probe != nil && s.Probe.FailureDeclared != nil {
		s.Probe.FailureDeclared(s.sched.Now(), reason)
	}
	if s.onFailure != nil {
		s.onFailure(s.sched.Now(), reason)
	}
}

// Shutdown is orderly teardown at the end of a pass: stop all timers and
// refuse further work without running the failure callbacks. Unreleased
// datagrams remain reclaimable via UnreleasedDatagrams.
func (s *Sender) Shutdown() {
	s.Close()
	s.retryTimer.Stop()
	s.stutterTimer.Stop()
}

// HandleFrame processes supervisory frames from the receiver.
func (s *Sender) HandleFrame(now sim.Time, f *frame.Frame) {
	if f.Corrupted || s.Closed() {
		return
	}
	// The N2 count resets only on window PROGRESS (handleRR, after a
	// release), never on mere supervisory chatter. A receiver with
	// corrupted state can answer every T1 poll forever — implausible RRs,
	// stale RRs below a poisoned sendBase, REJ storms demanding a frame the
	// sender no longer holds — and counting that chatter as proof of life
	// livelocks the link: polls and rejections cycle eternally with the
	// window never sliding and failure never declared. Sixteen-odd T1
	// periods without one frame released is a dead link whatever else is
	// arriving.
	switch f.Kind {
	case frame.KindRR:
		s.handleRR(now, f)
	case frame.KindSREJ:
		s.handleSREJ(now, f)
	case frame.KindREJ:
		s.handleREJ(now, f)
	}
}

// handleRR releases everything below N(R) (cumulative positive ack) and
// slides the window.
func (s *Sender) handleRR(now sim.Time, f *frame.Frame) {
	if f.Ack > s.NextSeq() {
		// N(R) above anything ever transmitted cannot be a genuine
		// acknowledgement: forged, or corrupted-yet-FCS-valid. Applying it
		// would release the whole window unseen AND advance sendBase past
		// nextSeq, after which every legitimate RR reads as stale — the
		// window could never release again. Refuse it; T1/N2 supervision
		// carries the link (recovery if the receiver is sane, bounded
		// failure declaration if its state is truly gone).
		s.im.implausibleRR.Inc()
		return
	}
	if f.Ack <= s.sendBase {
		return // stale
	}
	s.timeoutsInRow = 0 // forward progress: the link is alive
	s.im.rrHeard.Inc()
	s.Sweep(func(e *txq.Entry) bool {
		if e.Seq >= f.Ack {
			return true
		}
		s.Release(now, e)
		return false
	})
	s.sendBase = f.Ack
	s.restartT1()
	s.Kick(0)
}

// handleSREJ retransmits exactly the rejected frame under its original
// number.
func (s *Sender) handleSREJ(_ sim.Time, f *frame.Frame) {
	for _, e := range s.InFlight() {
		if e.Seq == f.Seq {
			s.im.srejRetx.Inc()
			// Retransmissions poll (P bit): §4's model has each
			// retransmission period end with an RR solicited by the
			// last retransmitted I-frame.
			s.transmit(e, true, true, arq.RetxSREJ)
			return
		}
	}
	// Unknown seq: the SREJ was stale (frame already released). Ignore.
}

// handleREJ implements Go-Back-N: retransmit the rejected frame and every
// later outstanding frame, in order.
func (s *Sender) handleREJ(_ sim.Time, f *frame.Frame) {
	n := 0
	for _, e := range s.InFlight() {
		if e.Seq >= f.Seq {
			n++
		}
	}
	i := 0
	for _, e := range s.InFlight() {
		if e.Seq >= f.Seq {
			i++
			s.im.rejRetx.Inc()
			s.transmit(e, i == n, true, arq.RetxREJ)
		}
	}
}
