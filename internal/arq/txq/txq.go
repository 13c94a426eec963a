// Package txq is the sending buffer of §3.3/§4: every accepted datagram
// sits in it, first in the untransmitted backlog and then on the in-flight
// list, until a covered checkpoint (LAMS-DLC) or an RR (the HDLC baselines)
// releases it. The Queue owns the storage, the numbering counter, the pump
// timer, the paced wire budget with its debt bound, and the release
// accounting; the engine embedding it owns every protocol decision — when
// to admit, which entries a control frame keeps, releases or retransmits,
// and what a transmission costs. SS-ARQ stays out: its lanes are slotted,
// not windowed, and a lane's whole state is one packed sequence value.
package txq

import (
	"repro/internal/arq"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// The queue's storage comes from its scheduler's run memory: within one run
// Release→Admit cycles reuse the same objects, and across a sweep of hermetic
// runs (bench.RunMany) each worker's population is allocated once instead of
// once per run. Everything is zeroed before Put, so Get never observes stale
// state or pinned payload memory.
var (
	entries   = sim.NewFreeList[Entry]()
	chunks    = sim.NewFreeList[sim.QueueChunk[arq.Datagram]]()
	inflights = sim.NewSlices[*Entry]()
)

// windowSlots is the in-flight list's first capacity, the smallest array the
// run memory stores. Most queues of a constellation never hold more than a
// few entries at once: a list grows from the run memory's arrays, and one
// that empties while still on its first window hands it back; a larger array
// stays with its queue until Recycle.
const windowSlots = 8

// Entry is one datagram on the in-flight list.
type Entry struct {
	Dg      arq.Datagram
	Seq     uint32   // current number: Renumber changes it, HDLC never does
	FirstTx sim.Time // start of the first transmission (holding-time base)
	LastTx  sim.Time // start of the transmission that carries Seq
}

// Queue is one sender's buffer. Engines embed it by value, which promotes
// the read side and Enqueue into their public surface; the mutators (Admit,
// Renumber, Sweep, Release, Charge, Close) are for the embedding engine
// alone. Not safe for concurrent use, like the state machines above it.
type Queue struct {
	// Probe is the transition observer; Release fires its Released, the
	// engine fires the rest. Nil detaches.
	Probe *arq.Probe
	// FreeAt is the instant the paced wire budget is next free. A pump
	// overwrites it after each admission (Ready has just shown it is not in
	// the future), Charge books unpaced transmissions onto it, and Ready
	// bounds it from above, so any value written here is safe.
	FreeAt sim.Time

	sched    *sim.Scheduler
	m        *arq.Metrics
	capacity int          // Enqueue refuses at this occupancy; 0 = unbounded
	debt     sim.Duration // how far ahead of the clock FreeAt may be booked
	pump     *sim.Timer
	closed   bool

	backlog  sim.Queue[arq.Datagram] // accepted, not yet first-transmitted
	inflight []*Entry                // unreleased, ascending Seq
	next     uint32

	// The engine's registry instruments (nil without a registry), named in
	// its instruments.go next to the rest of its family.
	releases    *metrics.Counter   // *_releases_total
	holdingNS   *metrics.Histogram // *_holding_time_ns
	outstanding *metrics.Gauge     // *_send_outstanding
}

// New builds an empty queue on sched's clock. m receives Submitted,
// HoldingTime and SendBufOcc; the three instruments are the registry's view
// of releases, holding time and occupancy. pump is the engine's transmit step, run when Kick's timer fires. debt
// bounds the pacing budget (see Charge): one resolving period for LAMS-DLC,
// one T1 for HDLC.
func New(sched *sim.Scheduler, m *arq.Metrics, capacity int, debt sim.Duration, pump func(),
	releases *metrics.Counter, holdingNS *metrics.Histogram, outstanding *metrics.Gauge) Queue {
	return Queue{
		sched:       sched,
		m:           m,
		capacity:    capacity,
		debt:        debt,
		pump:        sim.NewTimer(sched, pump),
		backlog:     sim.NewQueue(sched, chunks),
		releases:    releases,
		holdingNS:   holdingNS,
		outstanding: outstanding,
	}
}

// Outstanding returns the sending-buffer occupancy — in-flight entries plus
// backlog — whose transparent bound §4 derives for LAMS-DLC and whose
// unbounded growth it proves for HDLC.
func (q *Queue) Outstanding() int { return len(q.inflight) + q.backlog.Len() }

// Unacked returns the number of transmitted-but-unreleased entries.
func (q *Queue) Unacked() int { return len(q.inflight) }

// Backlog returns the number of accepted, not yet transmitted datagrams.
func (q *Queue) Backlog() int { return q.backlog.Len() }

// InFlight is the in-flight list, ascending Seq, oldest first. Read-only:
// the list changes only through Admit, Renumber and Sweep.
func (q *Queue) InFlight() []*Entry { return q.inflight }

// NextSeq is the next sequence number Admit or Renumber will assign.
func (q *Queue) NextSeq() uint32 { return q.next }

// Closed reports whether Close ran (declared failure or orderly shutdown).
func (q *Queue) Closed() bool { return q.closed }

// Enqueue accepts a datagram from the network layer, stamps its arrival and
// kicks the pump. False means refused — the queue is closed or at capacity —
// and the network layer retries or routes around, as in the
// store-and-forward model.
func (q *Queue) Enqueue(dg arq.Datagram) bool {
	if q.closed || q.capacity > 0 && q.Outstanding() >= q.capacity {
		return false
	}
	dg.EnqueuedAt = q.sched.Now()
	q.backlog.PushBack(dg)
	q.m.Submitted.Inc()
	q.note()
	q.Kick(0)
	return true
}

// Kick arms the pump d from now unless an earlier pump is already pending.
func (q *Queue) Kick(d sim.Duration) {
	if at := q.sched.Now().Add(d); q.pump.Deadline() > at {
		q.pump.StartAt(at)
	}
}

// Ready reports whether the wire budget allows a paced transmission now;
// when it does not, the pump is re-armed for the instant it will. A FreeAt
// further out than the debt bound was written by state corruption, not by
// budget accounting, and honoring it would halt new I-frames for
// arbitrarily long on an otherwise healthy link, so it is clamped first.
func (q *Queue) Ready(now sim.Time) bool {
	q.bound(now)
	if now < q.FreeAt {
		q.Kick(q.FreeAt.Sub(now))
		return false
	}
	return true
}

// Charge books d of wire time for a transmission that bypassed the pump.
// The debt must stay bounded: during a one-directional outage (I-frames
// vanishing while checkpoints keep flowing) every outstanding frame is
// retransmitted once per resolving period into the dead beam, and unbounded
// accumulation here left FreeAt minutes ahead of the clock — a
// re-established link stayed halted for new I-frames long after traffic
// could flow again. One debt period preserves the anti-storm back-pressure
// (retransmission volume per checkpoint refills it faster than it drains
// under real overload) while capping the post-restoration stall.
func (q *Queue) Charge(now sim.Time, d sim.Duration) {
	q.FreeAt = sim.MaxTime(now, q.FreeAt).Add(d)
	q.bound(now)
}

func (q *Queue) bound(now sim.Time) {
	if limit := now.Add(q.debt); q.FreeAt > limit {
		q.FreeAt = limit
	}
}

// Admit moves the backlog's front datagram onto the in-flight list under the
// next sequence number, first transmitted now. The backlog must not be empty.
func (q *Queue) Admit(now sim.Time) *Entry {
	e := entries.Get(q.sched)
	e.Dg, e.Seq, e.FirstTx, e.LastTx = q.backlog.PopFront(), q.next, now, now
	q.push(e)
	return e
}

// Renumber puts an entry that Sweep dropped back on the list under a fresh
// sequence number (the highest, so the order holds), retransmitted now.
func (q *Queue) Renumber(now sim.Time, e *Entry) {
	e.Seq, e.LastTx = q.next, now
	q.push(e)
}

func (q *Queue) push(e *Entry) {
	q.next++
	q.inflight = append(inflights.Grow(q.sched, q.inflight, 1), e)
	q.note()
}

// Sweep walks the in-flight list once, oldest first, and drops every entry
// keep refuses; the rest compact in place, in order, so the walk allocates
// nothing. keep decides an entry's fate and acts on a refusal itself —
// Release it, or hold it for a Renumber after Sweep returns; it must not
// admit or renumber while the walk runs.
func (q *Queue) Sweep(keep func(*Entry) bool) {
	w := 0
	for _, e := range q.inflight {
		if keep(e) {
			q.inflight[w] = e
			w++
		}
	}
	clear(q.inflight[w:]) // no stale *Entry pinned past the new length
	q.inflight = q.inflight[:w]
	if w == 0 && cap(q.inflight) == windowSlots {
		inflights.Put(q.sched, q.inflight)
		q.inflight = nil
	}
	q.note()
}

// Release records e's holding time and recycles it. The caller (Sweep's
// keep, returning false) must drop its reference.
func (q *Queue) Release(now sim.Time, e *Entry) {
	held := float64(now.Sub(e.FirstTx))
	q.m.HoldingTime.Add(held)
	q.releases.Inc()
	q.holdingNS.Observe(held)
	if q.Probe != nil && q.Probe.Released != nil {
		q.Probe.Released(now, e.Seq, e.Dg.ID)
	}
	*e = Entry{}
	entries.Put(q.sched, e)
}

// Close stops the pump and makes Enqueue refuse; what the queue holds stays
// reclaimable through UnreleasedDatagrams.
func (q *Queue) Close() {
	q.closed = true
	q.pump.Stop()
}

// Recycle hands the queue's storage back to the run memory — the entries
// still in flight, the backlog's chunks and the in-flight array — dropping
// the datagrams they hold. It is the teardown of a finished run: call it once
// nothing will read the queue again and before the scheduler's own Recycle;
// the queue is dead afterwards.
func (q *Queue) Recycle() {
	for _, e := range q.inflight {
		*e = Entry{}
		entries.Put(q.sched, e)
	}
	inflights.Put(q.sched, q.inflight)
	q.inflight = nil
	for q.backlog.Len() > 0 {
		q.backlog.PopFront()
	}
}

// UnreleasedDatagrams returns the datagrams still held, oldest first:
// in-flight entries in sequence order, then the backlog. After a declared
// failure or a shutdown the network layer re-routes or carries them over.
func (q *Queue) UnreleasedDatagrams() []arq.Datagram {
	out := make([]arq.Datagram, 0, q.Outstanding())
	for _, e := range q.inflight {
		out = append(out, e.Dg)
	}
	return q.backlog.AppendTo(out)
}

func (q *Queue) note() {
	q.m.SendBufOcc.Update(int64(q.sched.Now()), float64(q.Outstanding()))
	q.outstanding.Set(float64(q.Outstanding()))
}
