package ssarq

import (
	"repro/internal/arq"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Receiver is the B-side endpoint. Its whole state is one packed value per
// slot: the last sequence value it delivered there. Every well-formed
// I-frame is acknowledged by echoing its packed value verbatim; the frame
// is delivered upward exactly when the value differs from the slot's
// remembered one. The state needs no initialization agreement with the
// sender — whatever a slot holds, the first differing frame on it is
// delivered and overwrites it, which is the self-stabilization step.
type Receiver struct {
	sched   *sim.Scheduler
	wire    arq.Wire
	cfg     Config
	m       *arq.Metrics
	probe   *arq.Probe
	deliver arq.DeliverFunc
	instr   receiverInstr

	last []uint32 // last delivered packed value, per slot
	have []bool   // whether last[slot] is meaningful

	ackf frame.Frame // scratch for outbound acknowledgements: the wire copies
}

type receiverInstr struct {
	acks     *metrics.Counter // ssarq_acks_sent_total
	badSlots *metrics.Counter // ssarq_bad_slots_total: I-frames addressing slots beyond the lane count
	dups     *metrics.Counter // ssarq_dup_suppressed_total
}

func newReceiverInstr(reg *metrics.Registry) receiverInstr {
	return receiverInstr{
		acks:     reg.Counter("ssarq_acks_sent_total"),
		badSlots: reg.Counter("ssarq_bad_slots_total"),
		dups:     reg.Counter("ssarq_dup_suppressed_total"),
	}
}

// NewReceiver builds the receiving endpoint. deliver may be nil.
func NewReceiver(sched *sim.Scheduler, wire arq.Wire, cfg Config, m *arq.Metrics, deliver arq.DeliverFunc) *Receiver {
	if err := cfg.Validate(); err != nil {
		panic("ssarq: invalid config: " + err.Error())
	}
	return &Receiver{
		sched:   sched,
		wire:    wire,
		cfg:     cfg,
		m:       m,
		deliver: deliver,
		instr:   newReceiverInstr(cfg.Metrics),
		last:    make([]uint32, Lanes),
		have:    make([]bool, Lanes),
	}
}

// SetProbe installs the transition observer; nil detaches. The receiver
// has no checkpoint or recovery process, so no receiver-side probe
// callbacks fire — the checker's applicable subset follows.
func (r *Receiver) SetProbe(p *arq.Probe) { r.probe = p }

// Start is a no-op: the receiver is purely reactive.
func (r *Receiver) Start() {}

// Stop is a no-op for contract parity (no periodic process to halt).
func (r *Receiver) Stop() {}

// HandleFrame processes one arriving I-frame: ack always, deliver on
// change. Damaged frames vanish silently — the sender's retransmission
// timer is the only loss-repair mechanism. An uncorrupted I-frame belongs to
// the handler (channel.Handler), so every exit below recycles it; the
// payload outlives the header.
func (r *Receiver) HandleFrame(now sim.Time, f *frame.Frame) {
	if f.Corrupted || f.Kind != frame.KindI {
		return
	}
	seq := f.Seq
	slot := Slot(seq)
	if slot >= len(r.last) {
		r.instr.badSlots.Inc()
		frame.Put(f)
		return
	}
	if r.have[slot] && r.last[slot] == seq {
		r.m.DupSuppressed.Inc()
		r.instr.dups.Inc()
		frame.Put(f)
		r.ack(seq)
		return
	}
	r.last[slot] = seq
	r.have[slot] = true
	dg := arq.Datagram{ID: f.DatagramID, Payload: f.Payload, EnqueuedAt: sim.Time(f.EnqueuedNS)}
	frame.Put(f)
	r.m.NoteDelivery(now, dg)
	if r.deliver != nil {
		r.deliver(now, dg, seq)
	}
	r.ack(seq)
}

func (r *Receiver) ack(seq uint32) {
	r.ackf = frame.Frame{Kind: frame.KindRR, Ack: seq}
	r.wire.Send(&r.ackf)
	r.m.ControlSent.Inc()
	r.instr.acks.Inc()
}
