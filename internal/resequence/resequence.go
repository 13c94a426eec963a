// Package resequence implements the destination-node service that LAMS-DLC's
// relaxed reliability model requires (§2.3): because the link layer delivers
// datagrams out of order — and, across enforced recoveries, possibly more
// than once — "the destination node now has responsibility to provide
// sequencing" and duplicate suppression for its users.
//
// The resequencer consumes datagrams keyed by per-source consecutive IDs and
// releases them to the application exactly once, in ID order. Its buffer
// occupancy is the destination-side cost the paper trades against the
// subnet-wide savings of removing the in-sequence constraint; experiments
// read it via Stats.
package resequence

import (
	"fmt"

	"repro/internal/arq"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Stats counts resequencer activity.
type Stats struct {
	Received   stats.Counter      // datagrams handed in by the DLC
	Released   stats.Counter      // datagrams released in order
	Duplicates stats.Counter      // suppressed duplicates
	Buffered   stats.TimeWeighted // reorder-buffer occupancy
	MaxGap     stats.Counter      // largest reorder distance observed
}

// Resequencer restores per-source FIFO order with duplicate suppression.
type Resequencer struct {
	sched *sim.Scheduler
	next  uint64
	// held is the reorder buffer, a ring over the IDs from next on: a held
	// datagram sits at held[ID mod len(held)], and every held ID is below
	// next+len(held), so a slot names one ID. len(held) is a power of two
	// (or zero); the ring grows from the run memory to the widest reorder
	// distance seen. n counts the held datagrams.
	held    []heldSlot
	n       int
	release func(now sim.Time, dg arq.Datagram)
	// Window bounds the reorder buffer; zero means unbounded. When the
	// buffer is full the resequencer releases the lowest held datagram
	// out of strict order rather than deadlock (the DLC below guarantees
	// the gap will eventually fill, so this only triggers if the
	// destination under-provisions the buffer the paper sizes in §2.3).
	Window int

	Stats Stats
}

type heldSlot struct {
	dg arq.Datagram
	ok bool
}

// Resequencers and their rings come from the scheduler's run memory and go
// back in Recycle.
var (
	resequencers = sim.NewFreeList[Resequencer]()
	rings        = sim.NewSlices[heldSlot]()
)

// New returns a resequencer on sched's run memory releasing in-order
// datagrams via release.
func New(sched *sim.Scheduler, release func(now sim.Time, dg arq.Datagram)) *Resequencer {
	if release == nil {
		panic("resequence: nil release callback")
	}
	r := resequencers.Get(sched)
	r.sched, r.release = sched, release
	return r
}

// slot returns the ring slot of id, which must lie below next+len(held).
func (r *Resequencer) slot(id uint64) *heldSlot {
	return &r.held[id&uint64(len(r.held)-1)]
}

// Push accepts one datagram from the DLC.
func (r *Resequencer) Push(now sim.Time, dg arq.Datagram) {
	r.Stats.Received.Inc()
	if dg.ID < r.next {
		r.Stats.Duplicates.Inc()
		return
	}
	if dg.ID == r.next && r.n == 0 {
		// In order with nothing buffered — the overwhelming steady-state
		// case. Bypass the reorder buffer entirely: same observable
		// effects as the general path (one release, occupancy stays 0).
		r.next++
		r.Stats.Released.Inc()
		r.release(now, dg)
		r.Stats.Buffered.Update(int64(now), 0)
		return
	}
	gap := dg.ID - r.next
	if gap < uint64(len(r.held)) && r.slot(dg.ID).ok {
		r.Stats.Duplicates.Inc()
		return
	}
	if gap > r.Stats.MaxGap.Value() {
		// Addn keeps Counter monotone; set via difference.
		r.Stats.MaxGap.Addn(gap - r.Stats.MaxGap.Value())
	}
	if gap >= uint64(len(r.held)) {
		r.grow(gap)
	}
	*r.slot(dg.ID) = heldSlot{dg: dg, ok: true}
	r.n++
	r.drain(now)
	if r.Window > 0 && r.n > r.Window {
		r.forceLowest(now)
	}
	r.Stats.Buffered.Update(int64(now), float64(r.n))
}

// grow widens the ring past gap, re-filing every held datagram.
func (r *Resequencer) grow(gap uint64) {
	old := r.held
	r.held = rings.Grow(r.sched, nil, int(gap)+1)
	r.held = r.held[:cap(r.held)]
	for _, h := range old {
		if h.ok {
			*r.slot(h.dg.ID) = h
		}
	}
	rings.Put(r.sched, old)
}

// drain releases the contiguous prefix starting at next.
func (r *Resequencer) drain(now sim.Time) {
	for r.n > 0 {
		h := r.slot(r.next)
		if !h.ok {
			return
		}
		dg := h.dg
		*h = heldSlot{}
		r.n--
		r.next++
		r.Stats.Released.Inc()
		r.release(now, dg)
	}
}

// forceLowest skips the missing IDs below the lowest held datagram and
// releases forward from there — the overload escape hatch.
func (r *Resequencer) forceLowest(now sim.Time) {
	if r.n == 0 {
		return
	}
	for !r.slot(r.next).ok {
		r.next++
	}
	r.drain(now)
}

// Recycle hands the resequencer and its ring back to the run memory, dropping
// what it still holds: the teardown of a finished run, after which r is dead.
func (r *Resequencer) Recycle() {
	sched := r.sched
	rings.Put(sched, r.held)
	*r = Resequencer{}
	resequencers.Put(sched, r)
}

// Summary renders headline counters.
func (r *Resequencer) Summary() string {
	return fmt.Sprintf("released=%d dup=%d held=%d maxgap=%d",
		r.Stats.Released.Value(), r.Stats.Duplicates.Value(), r.n, r.Stats.MaxGap.Value())
}
