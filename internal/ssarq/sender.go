package ssarq

import (
	"sort"

	"repro/internal/arq"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// lane is one stop-and-wait channel. Its entire per-flight state is the
// (label, token) pair packed into seq — which is exactly what makes the
// lane self-stabilizing: any corruption of that state is indistinguishable
// from a renumbering retransmission, and the exact-echo release rule plus
// the periodic retransmission timer repair it within one round trip.
type lane struct {
	busy    bool
	label   uint32 // alternating label, mod labelMod
	token   uint32 // fresh pseudo-random draw per load
	seq     uint32 // Pack(label, slot, token), cached
	dg      arq.Datagram
	firstTx sim.Time
	lastTx  sim.Time
	loadSeq uint64 // monotone load order, for oldest-first Reclaim
}

// Sender is the A-side endpoint: it spreads submitted datagrams over the
// Lanes stop-and-wait lanes, retransmits every busy lane each
// RetxInterval, and releases a lane only on an exact echo of its current
// packed sequence value. It never declares link failure (see the package
// comment).
type Sender struct {
	sched *sim.Scheduler
	wire  arq.Wire
	cfg   Config
	m     *arq.Metrics
	probe *arq.Probe
	instr senderInstr

	lanes   []lane
	queue   sim.Queue[arq.Datagram]
	nbusy   int
	loadCtr uint64
	tokCtr  uint64
	started bool
	stopped bool

	txf frame.Frame // scratch for outbound I-frames: the wire copies

	scan func() // tick bound once: a method value rescheduled every scan allocates
}

// queueChunks holds the send queue's chunks on the scheduler's run memory.
var queueChunks = sim.NewFreeList[sim.QueueChunk[arq.Datagram]]()

type senderInstr struct {
	retx      *metrics.Counter // ssarq_retransmissions_total
	staleAcks *metrics.Counter // ssarq_stale_acks_total: well-formed acks not matching any live lane value
	lanesBusy *metrics.Gauge   // ssarq_lanes_busy
}

func newSenderInstr(reg *metrics.Registry) senderInstr {
	return senderInstr{
		retx:      reg.Counter("ssarq_retransmissions_total"),
		staleAcks: reg.Counter("ssarq_stale_acks_total"),
		lanesBusy: reg.Gauge("ssarq_lanes_busy"),
	}
}

// NewSender builds the sending endpoint. onFailure is accepted for engine
// contract parity but never invoked: SS-ARQ has no failure declaration.
func NewSender(sched *sim.Scheduler, wire arq.Wire, cfg Config, m *arq.Metrics, _ arq.FailureFunc) *Sender {
	if err := cfg.Validate(); err != nil {
		panic("ssarq: invalid config: " + err.Error())
	}
	s := &Sender{
		sched: sched,
		wire:  wire,
		cfg:   cfg,
		m:     m,
		instr: newSenderInstr(cfg.Metrics),
		lanes: make([]lane, Lanes),
		queue: sim.NewQueue(sched, queueChunks),
	}
	s.scan = s.tick
	return s
}

// SetProbe installs the transition observer; nil detaches.
func (s *Sender) SetProbe(p *arq.Probe) { s.probe = p }

// Start arms the retransmission scanner. The scan period is half the
// retransmission interval so a lane is never more than RetxInterval/2
// late, which ConvergenceBound's slack absorbs.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.sched.ScheduleAfterDetached(s.scanPeriod(), s.scan)
}

func (s *Sender) scanPeriod() sim.Duration {
	p := s.cfg.RetxInterval() / 2
	if p <= 0 {
		p = s.cfg.RetxInterval()
	}
	return p
}

func (s *Sender) tick() {
	if s.stopped {
		return
	}
	now, retx := s.sched.Now(), s.cfg.RetxInterval()
	for i := range s.lanes {
		ln := &s.lanes[i]
		if ln.busy && now.Sub(ln.lastTx) >= retx {
			s.retransmit(ln, now)
		}
	}
	s.sched.ScheduleAfterDetached(s.scanPeriod(), s.scan)
}

// Enqueue accepts a datagram: straight into a free lane if one exists,
// otherwise the FIFO queue.
func (s *Sender) Enqueue(dg arq.Datagram) bool {
	if s.stopped {
		return false
	}
	if s.cfg.BufferLimit > 0 && s.Outstanding() >= s.cfg.BufferLimit {
		return false
	}
	s.m.Submitted.Inc()
	if i := s.freeLane(); i >= 0 {
		s.load(i, dg)
	} else {
		s.queue.PushBack(dg)
	}
	s.noteOcc()
	return true
}

func (s *Sender) freeLane() int {
	if s.nbusy == len(s.lanes) {
		return -1
	}
	for i := range s.lanes {
		if !s.lanes[i].busy {
			return i
		}
	}
	return -1
}

// nextToken draws a fresh 22-bit token from a splitmix64 counter hash —
// deterministic per sender, uncorrelated with anything an adversary can
// have written into the receiver's slot memory.
func (s *Sender) nextToken() uint32 {
	s.tokCtr++
	x := s.tokCtr + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return uint32(x^(x>>31)) & tokenMask
}

func (s *Sender) load(slot int, dg arq.Datagram) {
	now := s.sched.Now()
	ln := &s.lanes[slot]
	ln.busy = true
	ln.dg = dg
	ln.token = s.nextToken()
	ln.seq = Pack(ln.label, slot, ln.token)
	ln.firstTx, ln.lastTx = now, now
	s.loadCtr++
	ln.loadSeq = s.loadCtr
	s.nbusy++
	s.instr.lanesBusy.Set(float64(s.nbusy))
	s.send(ln)
	s.m.FirstTx.Inc()
	if s.probe != nil && s.probe.FirstTransmission != nil {
		s.probe.FirstTransmission(now, ln.seq, ln.dg.ID)
	}
}

func (s *Sender) retransmit(ln *lane, now sim.Time) {
	s.send(ln)
	ln.lastTx = now
	s.m.Retransmissions.Inc()
	s.instr.retx.Inc()
	if s.probe != nil && s.probe.Retransmitted != nil {
		s.probe.Retransmitted(now, ln.seq, ln.seq, ln.dg.ID, arq.RetxTimeout)
	}
}

func (s *Sender) send(ln *lane) {
	s.txf = frame.Frame{
		Kind:       frame.KindI,
		Seq:        ln.seq,
		DatagramID: ln.dg.ID,
		Payload:    ln.dg.Payload,
		EnqueuedNS: int64(ln.dg.EnqueuedAt),
	}
	s.wire.Send(&s.txf)
}

// HandleFrame processes an acknowledgement. Only an exact echo of a busy
// lane's current packed value releases it; anything else — damaged, stale
// label, forged — is counted and dropped, and the retransmission timer
// carries the lane forward.
func (s *Sender) HandleFrame(now sim.Time, f *frame.Frame) {
	if f.Corrupted || f.Kind != frame.KindRR {
		return
	}
	slot := Slot(f.Ack)
	if slot >= len(s.lanes) {
		s.instr.staleAcks.Inc()
		return
	}
	ln := &s.lanes[slot]
	if !ln.busy || f.Ack != ln.seq {
		s.instr.staleAcks.Inc()
		return
	}
	s.release(ln, now)
}

func (s *Sender) release(ln *lane, now sim.Time) {
	s.m.HoldingTime.Add(float64(now.Sub(ln.firstTx)))
	if s.probe != nil && s.probe.Released != nil {
		s.probe.Released(now, ln.seq, ln.dg.ID)
	}
	slot := Slot(ln.seq)
	ln.busy = false
	ln.dg = arq.Datagram{}
	ln.label = (ln.label + 1) % labelMod
	s.nbusy--
	if s.queue.Len() > 0 {
		s.load(slot, s.queue.PopFront())
	} else {
		s.instr.lanesBusy.Set(float64(s.nbusy))
	}
	s.noteOcc()
}

func (s *Sender) noteOcc() {
	s.m.SendBufOcc.Update(int64(s.sched.Now()), float64(s.Outstanding()))
}

// Outstanding returns busy lanes plus queued datagrams.
func (s *Sender) Outstanding() int { return s.nbusy + s.queue.Len() }

// Shutdown is orderly teardown: timers stop, new work is refused, held
// datagrams stay reclaimable.
func (s *Sender) Shutdown() { s.stopped = true }

// Recycle implements arq.Recycler: draining the send queue hands its chunks
// back to the run memory. The sender is dead afterwards. The receiver keeps
// no run memory and needs no Recycle.
func (s *Sender) Recycle() {
	for s.queue.Len() > 0 {
		s.queue.PopFront()
	}
}

// UnreleasedDatagrams returns every datagram the sender still holds,
// oldest first (busy lanes in load order, then the queue).
func (s *Sender) UnreleasedDatagrams() []arq.Datagram {
	held := make([]*lane, 0, s.nbusy)
	for i := range s.lanes {
		if s.lanes[i].busy {
			held = append(held, &s.lanes[i])
		}
	}
	sort.Slice(held, func(i, j int) bool { return held[i].loadSeq < held[j].loadSeq })
	out := make([]arq.Datagram, 0, s.Outstanding())
	for _, ln := range held {
		out = append(out, ln.dg)
	}
	return s.queue.AppendTo(out)
}
