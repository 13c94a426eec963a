package hdlc

import (
	"fmt"
	"sync"

	"repro/internal/arq"
	"repro/internal/frame"
	"repro/internal/ring"
	"repro/internal/sim"
)

// hentryPool recycles window entries across sender lifetimes (see the
// LAMS-DLC entryPool for the rationale). Entries are zeroed before Put.
var hentryPool = sync.Pool{New: func() any { return new(hentry) }}

// hentry is one outstanding I-frame. HDLC never renumbers, so the key is
// stable for the frame's lifetime.
type hentry struct {
	dg        arq.Datagram
	seq       uint32
	firstTx   sim.Time
	srejTimes int
}

// Sender is the transmitting half of an HDLC endpoint: window-limited
// transmission, SREJ/REJ-driven retransmission, cumulative release on RR,
// and timeout recovery with P-bit polls.
type Sender struct {
	sched *sim.Scheduler
	wire  arq.Wire
	cfg   Config
	m     *arq.Metrics
	im    senderInstr

	queue    ring.Ring[arq.Datagram]
	window   []*hentry // outstanding, ascending seq
	sendBase uint32
	nextSeq  uint32

	// Recycled run-scoped state, mirroring the LAMS-DLC sender (ISSUE 6):
	// window entries return to hentryPool on release, and outbound frames
	// are built in a reusable scratch (the Wire contract copies on Send).
	// pacef is a separate scratch for the TxTime pacing probes so they
	// cannot disturb an in-flight txf between Send and TxTime.
	txf   frame.Frame
	pacef frame.Frame

	pumpTimer *sim.Timer
	pumpArmed bool
	wireFree  sim.Time

	retryTimer *sim.Timer

	// Stutter mode.
	stutterTimer *sim.Timer
	stutterIdx   int
	stutters     uint64

	// Failure supervision: consecutive T1 expiries with no supervisory
	// frame heard (the N2 retry count of real HDLC). Zero MaxTimeouts
	// disables declaration.
	timeoutsInRow int
	failed        bool
	onFailure     arq.FailureFunc

	probe *arq.Probe
}

// NewSender constructs an HDLC sender.
func NewSender(sched *sim.Scheduler, wire arq.Wire, cfg Config, m *arq.Metrics) *Sender {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Sender{sched: sched, wire: wire, cfg: cfg, m: m, im: newSenderInstr(cfg.Metrics)}
	s.pumpTimer = sim.NewTimer(sched, s.pump)
	s.retryTimer = sim.NewTimer(sched, s.onTimeout)
	s.stutterTimer = sim.NewTimer(sched, s.stutter)
	return s
}

// Stutters returns the number of idle-time stutter retransmissions sent.
func (s *Sender) Stutters() uint64 { return s.stutters }

// SetOnFailure installs the failure callback (API parity with the LAMS-DLC
// sender, whose constructor takes it; kept as a setter here so the raw
// constructor signature the live driver uses stays put). Install before
// Start.
func (s *Sender) SetOnFailure(fn arq.FailureFunc) { s.onFailure = fn }

// SetProbe installs the transition observer; nil detaches. HDLC fires the
// transmission-lifecycle callbacks (FirstTransmission, Retransmitted with
// oldSeq == newSeq, Released, FailureDeclared); the checkpoint/recovery
// callbacks have no HDLC transition and never fire.
func (s *Sender) SetProbe(p *arq.Probe) { s.probe = p }

// Failed reports whether the sender declared the link failed (or was shut
// down).
func (s *Sender) Failed() bool { return s.failed }

// Start is a no-op for symmetry with the LAMS-DLC sender.
func (s *Sender) Start() {}

// Outstanding returns window occupancy plus queued backlog — the sending
// buffer whose unbounded growth under sustained load §4 proves.
func (s *Sender) Outstanding() int { return len(s.window) + s.queue.Len() }

// Unacked returns the number of in-window frames.
func (s *Sender) Unacked() int { return len(s.window) }

// QueuedDatagrams returns the untransmitted backlog.
func (s *Sender) QueuedDatagrams() int { return s.queue.Len() }

// SendBase exposes the lowest unacknowledged sequence number.
func (s *Sender) SendBase() uint32 { return s.sendBase }

// Enqueue accepts a datagram from the network layer. Unlike LAMS-DLC there
// is no transparent bound; the queue grows as the analysis predicts, so the
// caller measures rather than limits it. A failed or shut-down sender
// refuses work, mirroring the LAMS-DLC contract.
func (s *Sender) Enqueue(dg arq.Datagram) bool {
	if s.failed {
		return false
	}
	dg.EnqueuedAt = s.sched.Now()
	s.queue.PushBack(dg)
	s.m.Submitted.Inc()
	s.noteOccupancy()
	s.schedulePump(0)
	return true
}

func (s *Sender) schedulePump(d sim.Duration) {
	at := s.sched.Now().Add(d)
	if s.pumpArmed && s.pumpTimer.Deadline() <= at {
		return
	}
	s.pumpArmed = true
	s.pumpTimer.StartAt(at)
}

// pump transmits while the window has room.
func (s *Sender) pump() {
	s.pumpArmed = false
	now := s.sched.Now()
	// Pacing debt is at most one frame time in normal operation; a
	// wireFree further out than one T1 period was written by state
	// corruption and would halt transmission on a healthy link.
	if limit := now.Add(s.cfg.Timeout); s.wireFree > limit {
		s.wireFree = limit
	}
	if now < s.wireFree {
		s.schedulePump(s.wireFree.Sub(now))
		return
	}
	if s.queue.Len() == 0 || uint32(len(s.window)) >= uint32(s.cfg.WindowSize) {
		s.maybeStutter()
		return
	}
	dg := s.queue.PopFront()
	e := s.newEntry()
	e.dg, e.seq, e.firstTx = dg, s.nextSeq, now
	s.nextSeq++
	s.window = append(s.window, e)
	// The frame that fills the window carries the P bit: ask the receiver
	// for an RR checkpoint so the window can turn over.
	final := uint32(len(s.window)) == uint32(s.cfg.WindowSize) || s.queue.Len() == 0
	s.transmit(e, final, false, 0)
	if s.probe != nil && s.probe.FirstTransmission != nil {
		s.probe.FirstTransmission(now, e.seq, e.dg.ID)
	}
	s.noteOccupancy()
	// Historical pacing quirk, kept bit-for-bit: the pacing probe is a
	// plain I-frame header (frame.NewI sizing), not an HDLC-I one.
	s.pacef = frame.Frame{Kind: frame.KindI, Payload: dg.Payload}
	tx := s.wire.TxTime(&s.pacef)
	s.wireFree = now.Add(tx)
	if s.queue.Len() > 0 {
		s.schedulePump(tx)
	}
}

// newEntry fetches a zeroed window entry from the pool.
func (s *Sender) newEntry() *hentry {
	return hentryPool.Get().(*hentry)
}

// freeEntry recycles a released window entry. The entry is zeroed before Put
// so the pool never pins payload memory and Get hands out clean objects.
func (s *Sender) freeEntry(e *hentry) {
	*e = hentry{}
	hentryPool.Put(e)
}

// transmit sends (or resends) e and restarts T1 (the single HDLC
// acknowledgment timer). cause classifies a retransmission for the probe;
// it is ignored when retx is false (HDLC keeps the original number, so the
// probe sees oldSeq == newSeq).
func (s *Sender) transmit(e *hentry, final, retx bool, cause arq.RetxCause) {
	s.txf = frame.Frame{
		Kind:       frame.KindHDLCI,
		Seq:        e.seq,
		Payload:    e.dg.Payload,
		DatagramID: e.dg.ID,
		Final:      final,
		EnqueuedNS: int64(e.dg.EnqueuedAt),
	}
	s.wire.Send(&s.txf)
	if retx {
		s.m.Retransmissions.Inc()
		s.im.retx.Inc()
		if s.probe != nil && s.probe.Retransmitted != nil {
			s.probe.Retransmitted(s.sched.Now(), e.seq, e.seq, e.dg.ID, cause)
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
	if len(s.window) == 0 {
		s.retryTimer.Stop()
		return
	}
	s.retryTimer.Start(s.cfg.Timeout)
}

// maybeStutter arms the stutter process: when new transmission is blocked
// but unacknowledged frames exist, the idle wire repeats them cyclically at
// the frame rate.
func (s *Sender) maybeStutter() {
	if !s.cfg.Stutter || len(s.window) == 0 || s.stutterTimer.Active() {
		return
	}
	idle := s.wireFree.Sub(s.sched.Now())
	if idle < 0 {
		idle = 0
	}
	s.stutterTimer.Start(idle)
}

// stutter repeats one unacknowledged frame and re-arms while the sender
// remains otherwise idle.
func (s *Sender) stutter() {
	if len(s.window) == 0 {
		return
	}
	// New traffic has priority: if a frame could be sent normally, yield.
	if s.queue.Len() > 0 && uint32(len(s.window)) < uint32(s.cfg.WindowSize) {
		s.schedulePump(0)
		return
	}
	if s.stutterIdx >= len(s.window) {
		s.stutterIdx = 0
	}
	e := s.window[s.stutterIdx]
	s.stutterIdx++
	s.stutters++
	s.im.stutterRetx.Inc()
	s.transmit(e, s.stutterIdx == len(s.window), true, arq.RetxStutter)
	s.pacef = frame.Frame{Kind: frame.KindHDLCI, Payload: e.dg.Payload}
	tx := s.wire.TxTime(&s.pacef)
	s.wireFree = s.sched.Now().Add(tx)
	s.stutterTimer.Start(tx)
}

// onTimeout performs HDLC checkpoint (timeout) retransmission: resend the
// oldest unacknowledged I-frame with the P bit set, soliciting an RR that
// reveals the receiver's true state (§4: timeout recovery governs the
// retransmission periods, with one frame per period). Each expiry with no
// intervening supervisory frame counts against N2 (MaxTimeouts); exhausting
// it declares link failure.
func (s *Sender) onTimeout() {
	if len(s.window) == 0 {
		return
	}
	s.timeoutsInRow++
	if s.cfg.MaxTimeouts > 0 && s.timeoutsInRow > s.cfg.MaxTimeouts {
		s.declareFailure()
		return
	}
	s.im.timeoutPolls.Inc()
	s.transmit(s.window[0], true, true, arq.RetxTimeout)
}

// declareFailure marks the link failed after N2 exhaustion: timers stop, new
// work is refused, and the unreleased datagrams stay reclaimable for
// carry-over, mirroring the LAMS-DLC failure path.
func (s *Sender) declareFailure() {
	if s.failed {
		return
	}
	s.failed = true
	s.retryTimer.Stop()
	s.pumpTimer.Stop()
	s.stutterTimer.Stop()
	s.pumpArmed = false
	s.m.Failures.Inc()
	s.im.failures.Inc()
	reason := fmt.Sprintf("N2 exhausted: %d consecutive T1 expiries", s.timeoutsInRow)
	if s.probe != nil && s.probe.FailureDeclared != nil {
		s.probe.FailureDeclared(s.sched.Now(), reason)
	}
	if s.onFailure != nil {
		s.onFailure(s.sched.Now(), reason)
	}
}

// Shutdown is orderly teardown at the end of a pass: stop all timers and
// refuse further work without running the failure callbacks. Unreleased
// datagrams remain reclaimable via UnreleasedDatagrams.
func (s *Sender) Shutdown() {
	s.failed = true
	s.retryTimer.Stop()
	s.pumpTimer.Stop()
	s.stutterTimer.Stop()
	s.pumpArmed = false
}

// UnreleasedDatagrams returns the datagrams not yet cumulatively
// acknowledged — in-window frames in sequence order, then the untransmitted
// queue — so a higher layer can carry them into the next pass. HDLC
// promises in-order delivery, so — unlike LAMS-DLC — an unreleased
// in-window frame may in fact have reached the receiver; the exactly-once
// guarantee across passes is then the resequencer's job, as §2.3 assigns it.
func (s *Sender) UnreleasedDatagrams() []arq.Datagram {
	out := make([]arq.Datagram, 0, len(s.window)+s.queue.Len())
	for _, e := range s.window {
		out = append(out, e.dg)
	}
	for i := 0; i < s.queue.Len(); i++ {
		out = append(out, s.queue.At(i))
	}
	return out
}

// HandleFrame processes supervisory frames from the receiver.
func (s *Sender) HandleFrame(now sim.Time, f *frame.Frame) {
	if f.Corrupted || s.failed {
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
	if f.Ack > s.nextSeq {
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
	w := 0
	for _, e := range s.window {
		if e.seq < f.Ack {
			s.m.HoldingTime.Add(float64(now.Sub(e.firstTx)))
			s.im.releases.Inc()
			s.im.holdingNS.Observe(float64(now.Sub(e.firstTx)))
			if s.probe != nil && s.probe.Released != nil {
				s.probe.Released(now, e.seq, e.dg.ID)
			}
			s.freeEntry(e)
		} else {
			s.window[w] = e
			w++
		}
	}
	for i := w; i < len(s.window); i++ {
		s.window[i] = nil
	}
	s.window = s.window[:w]
	s.sendBase = f.Ack
	s.restartT1()
	s.noteOccupancy()
	s.schedulePump(0)
}

// handleSREJ retransmits exactly the rejected frame under its original
// number.
func (s *Sender) handleSREJ(_ sim.Time, f *frame.Frame) {
	for _, e := range s.window {
		if e.seq == f.Seq {
			e.srejTimes++
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
	for _, e := range s.window {
		if e.seq >= f.Seq {
			n++
		}
	}
	i := 0
	for _, e := range s.window {
		if e.seq >= f.Seq {
			i++
			s.im.rejRetx.Inc()
			s.transmit(e, i == n, true, arq.RetxREJ)
		}
	}
}

func (s *Sender) noteOccupancy() {
	s.m.SendBufOcc.Update(int64(s.sched.Now()), float64(s.Outstanding()))
	s.im.outstanding.Set(float64(s.Outstanding()))
}
