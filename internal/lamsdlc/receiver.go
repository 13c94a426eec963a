package lamsdlc

import (
	"slices"

	"repro/internal/arq"
	"repro/internal/frame"
	"repro/internal/sim"
)

// Receiver is the receiving half of a LAMS-DLC endpoint. It emits periodic
// Check-Point commands for as long as the link is active ("commands are
// sent by the receiver so long as the link is active"), identifies damaged
// I-frames from gaps in the monotone sequence space, cumulates error
// reports over C_depth checkpoint intervals, and answers Request-NAKs
// immediately with Enforced-NAKs.
//
// Because LAMS-DLC relaxes the in-sequence constraint, arriving I-frames
// are delivered upward as soon as processing (t_proc) completes, regardless
// of order; the receive buffer holds only frames awaiting processing, which
// is what makes its size transparent (§3.3, §4).
type Receiver struct {
	sched *sim.Scheduler
	wire  arq.Wire
	cfg   Config
	m     *arq.Metrics
	im    receiverInstr

	expected  uint32     // next expected sequence number; all below are classified
	intervals [][]uint32 // error lists; intervals[0] is the current W_cp
	serial    uint32
	ticker    *sim.Ticker
	started   bool

	// Checkpoint-spacing observation base (virtual time of the previous
	// emission; zero until the first checkpoint goes out).
	lastCpEmit sim.Time
	haveCpEmit bool

	// Receive processing queue (the receiving buffer of §3.4).
	procQueue sim.Queue[*frame.Frame]
	procBusy  bool
	procDone  func() // finishProc bound once; the t_proc completion event
	stopGo    bool

	// DLC-level duplicate suppression (Config.DedupWindow). dedupAge is
	// the FIFO of recordings that drives incremental expiry: entries
	// leave seen as soon as they age past the window, so the map's
	// population is bounded by the deliveries of one window rather than
	// growing until an amortized sweep.
	seen     map[uint64]sim.Time // datagram ID -> delivery instant
	dedupAge sim.Queue[dedupRec]

	// Checkpoint-emission scratch, recycled across cycles: the NAK union's
	// output list keeps its backing storage (safe to reuse because the
	// channel copies NAK lists on Send), and outbound checkpoints are built
	// in a reusable scratch frame.
	nakOut []uint32
	cpf    frame.Frame

	deliver arq.DeliverFunc
	probe   *arq.Probe
}

// dedupRec is one dedup-memory recording awaiting expiry. A refreshed
// datagram ID leaves a stale record behind; expiry detects it by instant
// mismatch and skips the delete.
type dedupRec struct {
	id uint64
	at sim.Time
}

// The chunks of the receive buffer and the dedup FIFO, and the arrays of the
// error lists and their union, from the scheduler's run memory.
var (
	procChunks  = sim.NewFreeList[sim.QueueChunk[*frame.Frame]]()
	dedupChunks = sim.NewFreeList[sim.QueueChunk[dedupRec]]()
	seqLists    = sim.NewSlices[uint32]()
)

// NewReceiver constructs a receiver delivering upward via deliver (which
// may be nil for pure measurement runs).
func NewReceiver(sched *sim.Scheduler, wire arq.Wire, cfg Config, m *arq.Metrics, deliver arq.DeliverFunc) *Receiver {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := &Receiver{
		sched:     sched,
		wire:      wire,
		cfg:       cfg,
		m:         m,
		im:        newReceiverInstr(cfg.Metrics),
		intervals: make([][]uint32, cfg.CumulationDepth),
		procQueue: sim.NewQueue(sched, procChunks),
		deliver:   deliver,
	}
	if cfg.DedupWindow > 0 {
		r.seen = make(map[uint64]sim.Time)
		r.dedupAge = sim.NewQueue(sched, dedupChunks)
	}
	r.procDone = r.finishProc
	r.ticker = sim.NewTicker(sched, cfg.CheckpointInterval, r.emitCheckpoint)
	return r
}

// SetProbe installs the transition observer; nil detaches.
func (r *Receiver) SetProbe(p *arq.Probe) { r.probe = p }

// Start begins the periodic checkpoint process.
func (r *Receiver) Start() {
	if r.started {
		return
	}
	r.started = true
	r.ticker.Start()
}

// Stop halts the checkpoint process (link teardown).
func (r *Receiver) Stop() { r.ticker.Stop() }

// SetCheckpointPeriod re-times the running checkpoint ticker. The fault
// injector uses it to open and close clock-skew windows: a skewed receiver
// emits checkpoints faster or slower than the sender's timers assume, which
// is exactly the drift §3.2's silence windows must absorb. Takes effect from
// the next emission; panics on non-positive periods like the Ticker does.
func (r *Receiver) SetCheckpointPeriod(d sim.Duration) {
	if d <= 0 {
		panic("lamsdlc: non-positive checkpoint period")
	}
	r.ticker.SetPeriod(d)
}

// StopGoAsserted reports whether flow control is currently asserting stop.
func (r *Receiver) StopGoAsserted() bool { return r.stopGo }

// QueueLen returns the receive-buffer occupancy in frames.
func (r *Receiver) QueueLen() int { return r.procQueue.Len() }

// HandleFrame processes one arriving frame.
func (r *Receiver) HandleFrame(now sim.Time, f *frame.Frame) {
	if f.Corrupted {
		// Undecodable (assumption 9: detectably damaged). Its sequence
		// number is unknown; the gap left in the monotone sequence space
		// identifies it when the next good frame arrives.
		return
	}
	switch f.Kind {
	case frame.KindI:
		r.handleI(now, f)
	case frame.KindRequestNAK:
		r.handleRequestNAK(now, f)
	default:
		// Checkpoints and HDLC frames are never addressed to a LAMS
		// receiver; ignore.
	}
}

func (r *Receiver) handleI(now sim.Time, f *frame.Frame) {
	if f.Seq < r.expected {
		// Below the watermark means a duplicate of a classified frame.
		// With monotone numbering and a FIFO wire this cannot happen in
		// normal operation; tolerate it silently for robustness.
		frame.Put(f)
		return
	}
	if f.Seq-r.expected > MaxSeqJump {
		// A forward jump wider than any legitimate live window can only
		// be a forged or corrupted-yet-CRC-valid frame. Accepting it
		// would append one phantom NAK per skipped number and advance the
		// watermark past every genuine frame in flight, classifying all
		// subsequent real traffic as duplicate — a single such frame
		// permanently wedged the link. Discard without touching state.
		r.im.implausibleSeq.Inc()
		frame.Put(f)
		return
	}
	// Gap detection: every sequence number skipped over was a frame
	// damaged or destroyed on the wire (the sender numbers all
	// transmissions, including retransmissions, consecutively).
	if gap := f.Seq - r.expected; gap > 0 {
		r.intervals[0] = seqLists.Grow(r.sched, r.intervals[0], int(gap))
		for missing := r.expected; missing < f.Seq; missing++ {
			r.intervals[0] = append(r.intervals[0], missing)
			r.m.NAKsSent.Inc()
			r.im.gaps.Inc()
		}
	}
	r.expected = f.Seq + 1

	// Receive buffer admission (§3.4): a full processing queue discards
	// the frame; the discard is reported like any other error so the
	// sender retransmits it, and Stop-Go throttles the sender meanwhile.
	if r.cfg.RecvBufferCap > 0 && r.procQueue.Len() >= r.cfg.RecvBufferCap {
		r.intervals[0] = append(seqLists.Grow(r.sched, r.intervals[0], 1), f.Seq)
		r.m.NAKsSent.Inc()
		r.m.RecvDropped.Inc()
		r.im.dropped.Inc()
		if !r.stopGo {
			r.im.stopGoFlips.Inc()
			if r.probe != nil && r.probe.StopGoChanged != nil {
				r.probe.StopGoChanged(now, true)
			}
		}
		r.stopGo = true
		frame.Put(f)
		return
	}
	r.procQueue.PushBack(f)
	r.noteRecvOccupancy()
	r.updateStopGo()
	r.processNext()
}

// processNext runs the t_proc processing pipeline, one frame at a time.
func (r *Receiver) processNext() {
	if r.procBusy || r.procQueue.Len() == 0 {
		return
	}
	r.procBusy = true
	r.sched.ScheduleAfterDetached(r.cfg.ProcTime, r.procDone)
}

// finishProc completes one frame's t_proc: classify (dedup), deliver
// upward, recycle the frame, continue with the next. It is the processing
// pipeline's completion callback, bound once at construction.
func (r *Receiver) finishProc() {
	f := r.procQueue.PopFront()
	r.procBusy = false
	r.noteRecvOccupancy()
	r.updateStopGo()
	now := r.sched.Now()
	if r.seen != nil {
		if _, dup := r.seen[f.DatagramID]; dup {
			// The "more recent version" of §3.2: the link layer
			// itself guarantees zero duplication. Refresh the entry:
			// under sustained acknowledgement failure the sender keeps
			// retransmitting, so a chain of duplicates can outlive any
			// fixed window, but the gap between consecutive arrivals
			// of one datagram is bounded by the retransmission cadence
			// (well inside DedupWindow).
			r.recordSeen(f.DatagramID, now)
			r.m.DupSuppressed.Inc()
			r.im.dups.Inc()
			frame.Put(f)
			r.processNext()
			return
		}
		r.recordSeen(f.DatagramID, now)
	}
	dg := arq.Datagram{ID: f.DatagramID, Payload: f.Payload, EnqueuedAt: sim.Time(f.EnqueuedNS)}
	seq := f.Seq
	frame.Put(f)
	r.m.NoteDelivery(now, dg)
	r.im.delivered.Inc()
	if r.deliver != nil {
		r.deliver(now, dg, seq)
	}
	r.processNext()
}

func (r *Receiver) updateStopGo() {
	if r.cfg.RecvBufferCap <= 0 {
		return
	}
	occ := float64(r.procQueue.Len()) / float64(r.cfg.RecvBufferCap)
	if occ >= stopGoHigh {
		if !r.stopGo {
			r.im.stopGoFlips.Inc()
			if r.probe != nil && r.probe.StopGoChanged != nil {
				r.probe.StopGoChanged(r.sched.Now(), true)
			}
		}
		r.stopGo = true
	} else if occ <= stopGoLow {
		if r.stopGo {
			r.im.stopGoFlips.Inc()
			if r.probe != nil && r.probe.StopGoChanged != nil {
				r.probe.StopGoChanged(r.sched.Now(), false)
			}
		}
		r.stopGo = false
	}
}

// emitCheckpoint sends the periodic Check-Point command: watermark, the
// union of the last C_depth intervals' error lists, and the Stop-Go bit.
func (r *Receiver) emitCheckpoint() {
	r.serial++
	r.send(false, 0)
	// Rotate the cumulation window: the expiring oldest generation's
	// backing array becomes the fresh current interval, so steady-state
	// gap reporting reuses C_depth arrays instead of allocating.
	last := r.intervals[len(r.intervals)-1]
	copy(r.intervals[1:], r.intervals[:len(r.intervals)-1])
	r.intervals[0] = last[:0]
	r.m.Checkpoints.Inc()
	r.im.checkpoints.Inc()
	now := r.sched.Now()
	if r.haveCpEmit {
		r.im.cpSpacingNS.Observe(float64(now.Sub(r.lastCpEmit)))
	}
	r.lastCpEmit, r.haveCpEmit = now, true
}

// handleRequestNAK answers immediately with an Enforced-NAK (or Resolving
// command when there is nothing to report), per §3.2.
func (r *Receiver) handleRequestNAK(_ sim.Time, req *frame.Frame) {
	r.im.reqNAKsHeard.Inc()
	r.serial++
	r.send(true, req.Serial)
}

// send emits one checkpoint: the periodic Check-Point command, or — enforced,
// echoing the Request-NAK's serial for correlation — its Enforced-NAK answer.
func (r *Receiver) send(enforced bool, reqSerial uint32) {
	naks := r.cumulativeNAKs()
	r.cpf = frame.Frame{
		Kind:     frame.KindCheckpoint,
		Serial:   r.serial,
		Ack:      r.expected,
		NAKs:     naks,
		StopGo:   r.stopGo,
		Enforced: enforced,
		Seq:      reqSerial,
	}
	if r.probe != nil && r.probe.CheckpointSent != nil {
		r.probe.CheckpointSent(r.sched.Now(), r.serial, enforced)
	}
	r.wire.Send(&r.cpf)
	r.m.ControlSent.Inc()
	r.im.naksReported.Add(uint64(len(naks)))
	if enforced {
		r.im.enforcedSent.Inc()
	}
}

// cumulativeNAKs returns the union of the stored intervals, oldest
// generation first, each seq once where it first appears. In normal operation
// that is a concatenation: every list is built ascending (gaps, then an
// overflow discard, all at or above the watermark, which only rises) and each
// generation lies above the one before, so every seq lands above the largest
// taken so far. Only state corruption (a phantom report, CorruptState) can
// repeat or reorder one, and only such a seq is looked up in what was taken.
// The returned slice is scratch, valid until the next call; the channel
// copies it on Send.
func (r *Receiver) cumulativeNAKs() []uint32 {
	var total int
	for _, iv := range r.intervals {
		total += len(iv)
	}
	if total == 0 {
		return nil
	}
	out := seqLists.Grow(r.sched, r.nakOut[:0], total)
	var top uint32
	for i := len(r.intervals) - 1; i >= 0; i-- {
		for _, seq := range r.intervals[i] {
			if len(out) > 0 && seq <= top && slices.Contains(out, seq) {
				continue
			}
			out = append(out, seq)
			top = max(top, seq)
		}
	}
	r.nakOut = out
	return out
}

// recordSeen stamps id in the dedup memory and expires everything past the
// window. Expiry is incremental off the recording FIFO — pop while the
// front is overage — so the map never holds entries older than the window
// plus one delivery gap, keeping its size bounded by a window's deliveries
// (the §3.2 memory-bound argument, enforced rather than amortized).
func (r *Receiver) recordSeen(id uint64, now sim.Time) {
	r.seen[id] = now
	r.dedupAge.PushBack(dedupRec{id: id, at: now})
	for r.dedupAge.Len() > 0 {
		rec := r.dedupAge.Front()
		// A future-dated record (possible only under state corruption —
		// timestamps are stamped from the monotone clock) must count as
		// expired, not fresh: the signed Sub comes out negative, which the
		// window test would read as "well inside the window", wedging the
		// FIFO behind an entry that never ages and growing the map without
		// bound — the exact memory-bound §3.2 argues the dedup design
		// avoids.
		if rec.at <= now && now.Sub(rec.at) <= r.cfg.DedupWindow {
			break
		}
		r.dedupAge.PopFront()
		// A refreshed ID leaves stale records; only the latest recording
		// may delete.
		if at, ok := r.seen[rec.id]; ok && at == rec.at {
			delete(r.seen, rec.id)
		}
	}
}

// Recycle hands the receive buffer, with the frames it holds, the dedup FIFO
// and the error lists back to the run memory (arq.Recycler): the teardown of
// a finished run, after which the receiver is dead.
func (r *Receiver) Recycle() {
	for r.procQueue.Len() > 0 {
		frame.Put(r.procQueue.PopFront())
	}
	for r.dedupAge.Len() > 0 {
		r.dedupAge.PopFront()
	}
	for i, iv := range r.intervals {
		seqLists.Put(r.sched, iv)
		r.intervals[i] = nil
	}
	seqLists.Put(r.sched, r.nakOut)
	r.nakOut = nil
}

func (r *Receiver) noteRecvOccupancy() {
	r.m.RecvBufOcc.Update(int64(r.sched.Now()), float64(r.procQueue.Len()))
	r.im.queueLen.Set(float64(r.procQueue.Len()))
}
