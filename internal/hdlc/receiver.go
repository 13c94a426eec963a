package hdlc

import (
	"repro/internal/arq"
	"repro/internal/frame"
	"repro/internal/sim"
)

// Receiver is the receiving half of an HDLC endpoint. It enforces strict
// reliability: frames are delivered to the packet layer in order, without
// loss or duplicates. In SelectiveRepeat mode out-of-order frames are held
// in the receive buffer (which is why SR-HDLC needs a window's worth of
// receive memory, §2.3); in GoBackN mode they are discarded.
type Receiver struct {
	sched *sim.Scheduler
	wire  arq.Wire
	cfg   Config
	m     *arq.Metrics
	im    receiverInstr

	recvBase uint32 // N(R): next in-order sequence number needed
	*recvMaps
	rejSent bool // GBN: one REJ outstanding per gap

	deliveredInWindow int // RR cadence: acknowledge every window's worth

	// Recycled scratch (ISSUE 6): outbound supervisory frames are built
	// in ctrlf (the Wire contract copies on Send) and the SREJ gap scan
	// reuses missBuf's backing array, from the run memory.
	ctrlf   frame.Frame
	missBuf []uint32

	deliver arq.DeliverFunc
}

// recvMaps is a receiver's out-of-order buffer (held) and the gaps it has
// SREJed (srejSent). They come from the scheduler's run memory and go back
// cleared in Recycle — cleared, not dropped, so the next run's receiver
// inherits their grown tables instead of regrowing them.
type recvMaps struct {
	held     map[uint32]*frame.Frame
	srejSent map[uint32]bool
}

var (
	recvMapLists = sim.NewFreeList[recvMaps]()
	missLists    = sim.NewSlices[uint32]()
)

// NewReceiver constructs an HDLC receiver.
func NewReceiver(sched *sim.Scheduler, wire arq.Wire, cfg Config, m *arq.Metrics, deliver arq.DeliverFunc) *Receiver {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	maps := recvMapLists.Get(sched)
	if maps.held == nil {
		*maps = recvMaps{held: make(map[uint32]*frame.Frame), srejSent: make(map[uint32]bool)}
	}
	return &Receiver{
		sched:    sched,
		wire:     wire,
		cfg:      cfg,
		m:        m,
		im:       newReceiverInstr(cfg.Metrics),
		recvMaps: maps,
		deliver:  deliver,
	}
}

// Recycle hands the out-of-order buffer's frames to their free list, and the
// two maps, cleared, and the gap-scan array back to the run memory
// (arq.Recycler): the teardown of a finished run, after which the receiver
// is dead.
func (r *Receiver) Recycle() {
	for _, f := range r.held {
		frame.Put(f)
	}
	clear(r.held)
	clear(r.srejSent)
	recvMapLists.Put(r.sched, r.recvMaps)
	missLists.Put(r.sched, r.missBuf)
	r.recvMaps, r.missBuf = nil, nil
}

// Start is a no-op: HDLC receivers are purely reactive.
func (r *Receiver) Start() {}

// Stop is a no-op: a reactive receiver has no timers to tear down.
func (r *Receiver) Stop() {}

// SetProbe is a no-op: only the sender has observable transitions (see
// Sender.SetProbe).
func (r *Receiver) SetProbe(*arq.Probe) {}

// Held returns the receive-buffer occupancy (out-of-order frames).
func (r *Receiver) Held() int { return len(r.held) }

// HandleFrame processes one arriving frame.
func (r *Receiver) HandleFrame(now sim.Time, f *frame.Frame) {
	if f.Corrupted {
		// Damaged frame: HDLC discards it; recovery comes from the
		// gap-triggered SREJ/REJ when the next good frame arrives, or
		// from the sender's timeout.
		return
	}
	if f.Kind != frame.KindHDLCI {
		return
	}
	// The frame may be recycled (or buffered) inside the branches below;
	// read the poll bit first.
	final := f.Final
	switch {
	case f.Seq < r.recvBase:
		// Duplicate of a delivered frame (e.g. retransmitted after its
		// RR was lost). Discard; if it polls, answer so the sender can
		// slide its window.
		r.im.dups.Inc()
		frame.Put(f)
		if final {
			r.sendRR(true)
		}
		return
	case f.Seq == r.recvBase:
		r.accept(now, f)
	default:
		// Out of order: a gap [recvBase, f.Seq) exists.
		r.onGap(f)
	}
	if final {
		r.sendRR(true)
	}
}

// accept delivers the in-order frame and any buffered successors.
func (r *Receiver) accept(now sim.Time, f *frame.Frame) {
	r.deliverUp(now, f)
	frame.Put(f)
	r.recvBase++
	for {
		g, ok := r.held[r.recvBase]
		if !ok {
			break
		}
		delete(r.held, r.recvBase)
		r.deliverUp(now, g)
		frame.Put(g)
		r.recvBase++
	}
	r.rejSent = false
	for seq := range r.srejSent {
		if seq < r.recvBase {
			delete(r.srejSent, seq)
		}
	}
	r.noteRecvOccupancy()
	// Check-point-mode RR cadence: acknowledge once per window of
	// deliveries even without a poll, so the sender's window can turn
	// over (the per-window RR exchange of [8] that §2.3 describes).
	if r.deliveredInWindow >= r.cfg.WindowSize {
		r.deliveredInWindow = 0
		r.sendRR(false)
	}
}

func (r *Receiver) onGap(f *frame.Frame) {
	switch r.cfg.Mode {
	case SelectiveRepeat:
		if _, dup := r.held[f.Seq]; dup {
			frame.Put(f)
			return // duplicate of a held frame
		}
		// Information frames belong to the handler (channel.Handler), so
		// the out-of-order buffer can hold the frame itself — no copy.
		r.held[f.Seq] = f
		r.noteRecvOccupancy()
		// SREJ each newly discovered missing frame exactly once; the
		// sender's timeout covers SREJ losses. The scan ascends, so the
		// list is born sorted.
		missing := r.missBuf[:0]
		for seq := r.recvBase; seq < f.Seq; seq++ {
			if _, have := r.held[seq]; !have && !r.srejSent[seq] {
				missing = append(missLists.Grow(r.sched, missing, 1), seq)
			}
		}
		r.missBuf = missing
		for _, seq := range missing {
			r.srejSent[seq] = true
			r.ctrlf = frame.Frame{Kind: frame.KindSREJ, Ack: r.recvBase, Seq: seq}
			r.wire.Send(&r.ctrlf)
			r.m.NAKsSent.Inc()
			r.m.ControlSent.Inc()
			r.im.srejSent.Inc()
		}
	case GoBackN:
		// Discard and demand a back-up, once per gap episode.
		frame.Put(f)
		if !r.rejSent {
			r.rejSent = true
			r.ctrlf = frame.Frame{Kind: frame.KindREJ, Ack: r.recvBase, Seq: r.recvBase}
			r.wire.Send(&r.ctrlf)
			r.m.NAKsSent.Inc()
			r.m.ControlSent.Inc()
			r.im.rejSent.Inc()
		}
	}
}

func (r *Receiver) deliverUp(now sim.Time, f *frame.Frame) {
	dg := arq.Datagram{ID: f.DatagramID, Payload: f.Payload, EnqueuedAt: sim.Time(f.EnqueuedNS)}
	r.m.NoteDelivery(now, dg)
	r.im.delivered.Inc()
	r.deliveredInWindow++
	if r.deliver != nil {
		r.deliver(now, dg, f.Seq)
	}
}

func (r *Receiver) sendRR(final bool) {
	r.ctrlf = frame.Frame{Kind: frame.KindRR, Ack: r.recvBase, Final: final}
	r.wire.Send(&r.ctrlf)
	r.m.ControlSent.Inc()
	r.im.rrSent.Inc()
	r.deliveredInWindow = 0
}

func (r *Receiver) noteRecvOccupancy() {
	r.m.RecvBufOcc.Update(int64(r.sched.Now()), float64(len(r.held)))
	r.im.held.Set(float64(len(r.held)))
}
