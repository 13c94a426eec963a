package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/metrics"
)

// The executive is a hierarchical timer wheel over absolute nanosecond
// timestamps, replacing the earlier binary heap. Layout:
//
//   - Level 0 ("L0") is 4096 one-nanosecond slots covering the 2^12 ns
//     window containing now. A two-level bitmap (l0sum summarising the 64
//     words of l0occ) finds the earliest occupied slot in two
//     TrailingZeros64 instructions.
//   - Nine upper levels of 64 slots each cover 6 more bits of the
//     timestamp apiece, so the wheel resolves 12+9*6 = 66 bits: every
//     instant a Time can hold has a place in it, however far ahead.
//
// Events at the same instant always hash to the same bucket at every
// level, and buckets are append-ordered intrusive lists, so FIFO order
// among same-instant events is structural — no sequence counter needed.
//
// The determinism contract of the heap version is preserved exactly:
// events fire in (timestamp, insertion-order) order, Cancel is O(1)
// (mark dead, reap lazily when the slot is visited — no sift), and a
// callback observing Now() always sees the fired event's timestamp.
const (
	wheelL0Bits  = 12               // log2 of L0 slot count
	wheelL0Slots = 1 << wheelL0Bits // one slot per nanosecond tick
	wheelLvlBits = 6                // log2 of upper-level fan-out
	wheelSlots   = 1 << wheelLvlBits
	wheelUpper   = 9 // upper levels above L0
)

// The wheel must resolve all 63 bits of a non-negative Time; this constant
// fails to compile if a change to the layout leaves a bit uncovered.
const _ = uint(wheelL0Bits + wheelUpper*wheelLvlBits - 63)

// event is the scheduler's record of a scheduled callback. Callers outside
// the package hold a Handle instead; the *event form is confined to this
// package (Timer/Ticker, the freelists) so the object can be recycled
// aggressively.
type event struct {
	at Time
	fn func()
	// fnArg/arg is the argument-taking callback variant: one long-lived
	// func(any) shared by many events, with the per-event state passed as
	// arg. It lets a hot path (frame delivery) schedule per-item events
	// without a per-item closure allocation. When fnArg is set it is the
	// callback; fn is ignored.
	fnArg  func(any)
	arg    any
	next   *event     // intrusive link: bucket chain, or freelist chain
	owner  *Scheduler // scheduler that enqueued the event (for cancel bookkeeping)
	fired  bool
	cancel bool
	// detached marks an event whose handle never escaped to an
	// arbitrary caller (ScheduleDetached, or the managed Timer/Ticker
	// path which drops its handle synchronously on fire/stop): the
	// scheduler may recycle the event object once it leaves the wheel.
	detached bool
	// gen is the slot's generation, bumped every time the event object is
	// retired to a freelist. A Handle captures the generation at schedule
	// time; a mismatch later means the slot was recycled for an unrelated
	// event, so the Handle's own event must have fired. The counter
	// survives Recycle and the run memory's rest in the depot, so it never
	// repeats a value an outstanding Handle could still hold.
	gen uint64
	// born numbers the events of one run memory in the order they were
	// allocated, which for objects allocated one by one is address order.
	// Recycle relinks the donated events by it (see runMem.events).
	born uint32
}

// Handle is a cancellable reference to a scheduled event, returned by
// Schedule and ScheduleAfter. It is a plain value — copying it is free and
// returning one does not allocate, which is what lets the handle path share
// the freelist with the detached path (the generation check makes reuse safe
// even while handles are still outstanding). The zero Handle is inert: its
// Cancel is a no-op.
type Handle struct {
	e   *event
	gen uint64
}

// valid reports whether the handle still refers to its own event (the slot
// has not been recycled for a newer one).
func (h Handle) valid() bool { return h.e != nil && h.e.gen == h.gen }

// Cancel removes the event from the schedule if it has not fired. Cancelling
// an already-fired or already-cancelled event — or through the zero Handle —
// is a no-op, even if the underlying slot has since been recycled.
func (h Handle) Cancel() {
	if h.valid() {
		h.e.owner.cancel(h.e)
	}
}

// bucket is an append-ordered intrusive event list. Append order is
// insertion order, which is what makes same-instant FIFO structural.
type bucket struct {
	head, tail *event
}

func (b *bucket) push(e *event) {
	e.next = nil
	if b.tail == nil {
		b.head = e
	} else {
		b.tail.next = e
	}
	b.tail = e
}

// wheel is the bucket storage of one scheduler: 75 KB that Recycle leaves
// all-empty (every bucket nil, every occupancy word zero), so the next
// scheduler on the same run memory takes it over without zeroing it.
type wheel struct {
	// Level 0: one slot per nanosecond, two-level occupancy bitmap.
	l0    [wheelL0Slots]bucket
	l0occ [wheelL0Slots / 64]uint64

	// Upper levels: 64 slots each, one occupancy word per level.
	lv  [wheelUpper][wheelSlots]bucket
	occ [wheelUpper]uint64
}

// Scheduler is the discrete-event executive: a clock plus a hierarchical
// timer wheel of pending events. Events scheduled for the same instant fire
// in FIFO order. The zero Scheduler is ready to use.
type Scheduler struct {
	now     Time
	stopped bool
	// executed counts callbacks run; exposed for tests and for guarding
	// against runaway simulations.
	executed uint64
	// live is the number of pending, uncancelled events.
	live int
	// peek caches the earliest live event when the scheduler can prove it
	// is the earliest (sole live event, or inserted strictly before a
	// valid peek). It lets the schedule→fire cycle skip the bitmap walk;
	// nil means "unknown" and the fire path falls back to the scan. It is
	// invalidated on fire and on cancel, so it can never dangle.
	peek *event

	// w holds the wheel's bucket arrays, which ride the run memory: nil
	// until the scheduler adopts one (memory), nil again after Recycle.
	// l0sum summarises w.l0occ and is zero whenever w is nil.
	w     *wheel
	l0sum uint64

	// free is the event recycle list (intrusive via next). Detached events
	// return here when reaped; handle-returning events return here once
	// fired, their generation bumped so an outstanding Handle can never
	// alias the reused slot (see retire).
	free *event

	// mem is the run memory (runmem.go): the events earlier schedulers
	// donated, drawn on when free is empty, and the Locals of every package
	// built on this scheduler. Nil until first needed; recycled marks a
	// scheduler whose Recycle gave it away.
	mem      *runMem
	recycled bool

	// Observability instruments (nil when uninstrumented; all nil-safe).
	// The per-event counters are batched: the hot path bumps the plain
	// nSched/nExec/nCanc/nRecy tallies and flushMetrics publishes the
	// deltas at run-loop boundaries, so firing an event costs no atomic
	// operations. qPeak mirrors the pending-event high-water mark locally
	// so the gauge is only written when the peak actually moves.
	mScheduled *metrics.Counter
	mExecuted  *metrics.Counter
	mCancelled *metrics.Counter
	mRecycled  *metrics.Counter
	mQueuePeak *metrics.Gauge
	nSched     uint64
	nExec      uint64
	nCanc      uint64
	nRecy      uint64
	qPeak      int

	// Pad to 256 bytes, a size class whose objects start on 256-byte
	// boundaries. While the wheel was inline every Scheduler was a
	// page-aligned large object; at its bare 160 bytes two of them — the
	// two shards of a constellation, the two endpoints of a live link,
	// each driven by its own goroutine — would be handed out 160 bytes
	// apart and share a cache line: one's event tallies and the other's
	// clock.
	_ [96]byte
}

// NewScheduler returns a Scheduler with the clock at the epoch.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Instrument registers the scheduler's event-churn metrics in reg:
// sim_events_scheduled/executed/cancelled/recycled_total and the
// sim_event_queue_peak gauge. A nil reg leaves the scheduler
// uninstrumented (the increments become no-ops on nil instruments).
func (s *Scheduler) Instrument(reg *metrics.Registry) {
	s.flushMetrics() // publish (or drop, when uninstrumented) prior tallies
	s.mScheduled = reg.Counter("sim_events_scheduled_total")
	s.mExecuted = reg.Counter("sim_events_executed_total")
	s.mCancelled = reg.Counter("sim_events_cancelled_total")
	s.mRecycled = reg.Counter("sim_events_recycled_total")
	s.mQueuePeak = reg.Gauge("sim_event_queue_peak")
}

// flushMetrics publishes the batched event-churn tallies to the registered
// counters. Run, RunUntil, and RunFor flush on exit, so snapshots taken
// between runs (and the live endpoint, once per driver slice) see exact
// totals without the hot path paying an atomic per event.
func (s *Scheduler) flushMetrics() {
	if s.nSched != 0 {
		s.mScheduled.Add(s.nSched)
		s.nSched = 0
	}
	if s.nExec != 0 {
		s.mExecuted.Add(s.nExec)
		s.nExec = 0
	}
	if s.nCanc != 0 {
		s.mCancelled.Add(s.nCanc)
		s.nCanc = 0
	}
	if s.nRecy != 0 {
		s.mRecycled.Add(s.nRecy)
		s.nRecy = 0
	}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Executed returns the number of callbacks that have run.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Schedule queues fn to run at instant at. Scheduling in the past panics:
// that is always a protocol-logic bug and silently reordering events would
// destroy causality. Scheduling exactly at Now is allowed and fires before
// time advances further.
func (s *Scheduler) Schedule(at Time, fn func()) Handle {
	e := s.schedule(at, fn, nil, nil, false)
	return Handle{e: e, gen: e.gen}
}

// ScheduleDetached queues fn like Schedule but returns no handle: the event
// cannot be cancelled, and the scheduler recycles the event object after it
// fires. Hot paths that never cancel (frame deliveries, receive-processing
// completions, workload arrivals) use it to keep the event churn of a long
// sweep allocation-free.
func (s *Scheduler) ScheduleDetached(at Time, fn func()) {
	s.schedule(at, fn, nil, nil, true)
}

// ScheduleArgDetached queues a detached event that calls fn(arg) at instant
// at. The point over ScheduleDetached is allocation: a hot path delivering
// many items shares ONE long-lived fn and threads the per-item state
// through arg, so nothing escapes per event. Passing a pointer as arg is
// allocation-free; non-pointer values may box.
func (s *Scheduler) ScheduleArgDetached(at Time, fn func(any), arg any) {
	s.schedule(at, nil, fn, arg, true)
}

// ScheduleAfter queues fn to run d after the current instant. Negative
// delays clamp to zero.
func (s *Scheduler) ScheduleAfter(d Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return s.Schedule(s.now.Add(d), fn)
}

// ScheduleAfterDetached is ScheduleAfter without a cancel handle; see
// ScheduleDetached.
func (s *Scheduler) ScheduleAfterDetached(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.ScheduleDetached(s.now.Add(d), fn)
}

func (s *Scheduler) schedule(at Time, fn func(), fnArg func(any), arg any, detached bool) *event {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	if fn == nil && fnArg == nil {
		panic("sim: schedule with nil callback")
	}
	e := s.free
	if e != nil {
		// Recycled events already carry owner == s (the freelist is
		// per-scheduler); only the lifecycle flags need resetting.
		s.free = e.next
		e.fired, e.cancel = false, false
		s.nRecy++
	} else if m := s.memory(); m.events != nil {
		// The run memory supplies events donated by finished schedulers (see
		// Recycle), so a sweep of hermetic runs pays the event working set
		// once, not per run. The generation carries over: it is the one
		// field that must outlive every previous owner.
		e = m.events
		m.events = e.next
		*e = event{owner: s, gen: e.gen, born: e.born}
	} else {
		e = &event{owner: s, born: m.born}
		m.born++
	}
	e.at, e.fn, e.detached = at, fn, detached
	e.fnArg, e.arg = fnArg, arg
	// The L0 case is inlined here: most events land within the current
	// 4096 ns window, and the indirect call into insert costs as much as
	// the bucket push itself.
	if x := uint64(at) ^ uint64(s.now); x < wheelL0Slots {
		sl := int(uint64(at)) & (wheelL0Slots - 1)
		wh := s.w
		wh.l0[sl].push(e)
		wh.l0occ[(sl>>6)&63] |= 1 << uint(sl&63)
		s.l0sum |= 1 << uint((sl>>6)&63)
	} else {
		s.insert(e)
	}
	s.live++
	if s.live == 1 || (s.peek != nil && at < s.peek.at) {
		// Strict <: an equal-time insert keeps the earlier event as
		// peek, preserving FIFO.
		s.peek = e
	}
	s.nSched++
	if s.live > s.qPeak {
		s.qPeak = s.live
		s.mQueuePeak.Set(float64(s.qPeak))
	}
	return e
}

// insert places e in the wheel level determined by the highest bit in
// which e.at differs from now. Callers cascading a bucket first advance now
// to the bucket's span start so re-inserted events land strictly lower.
func (s *Scheduler) insert(e *event) {
	wh := s.w
	x := uint64(e.at) ^ uint64(s.now)
	if x>>wheelL0Bits == 0 {
		sl := int(uint64(e.at) & (wheelL0Slots - 1))
		wh.l0[sl].push(e)
		wh.l0occ[sl>>6] |= 1 << uint(sl&63)
		s.l0sum |= 1 << uint(sl>>6)
		return
	}
	l := (bits.Len64(x) - wheelL0Bits - 1) / wheelLvlBits
	sl := int(uint64(e.at)>>uint(wheelL0Bits+l*wheelLvlBits)) & (wheelSlots - 1)
	wh.lv[l][sl].push(e)
	wh.occ[l] |= 1 << uint(sl)
}

func (s *Scheduler) clearL0(wh *wheel, sl int) {
	w := (sl >> 6) & 63
	wh.l0occ[w] &^= 1 << uint(sl&63)
	if wh.l0occ[w] == 0 {
		s.l0sum &^= 1 << uint(w)
	}
}

// retire takes an event that left the wheel: the callback reference is
// dropped so completed closures (and everything they capture) become
// garbage-collectable during long sweeps, and recyclable events return to
// the freelist. Detached events are always recyclable; handled events are
// recyclable once FIRED — the generation bump invalidates every outstanding
// Handle, so reuse cannot alias one. Cancelled handled events are the one
// class left to the garbage collector: their generation must keep matching
// so the Handle keeps answering Cancelled()=true, Fired()=false.
func (s *Scheduler) retire(e *event) {
	e.fn, e.fnArg, e.arg = nil, nil, nil
	if e.detached || e.fired {
		e.gen++
		e.next = s.free
		s.free = e
	} else {
		e.next = nil
	}
}

// scanReap retires dead events in b, preserving the order of the live
// ones, and returns the minimum live timestamp (Never if the bucket
// drained) plus whether any live event remains.
func (s *Scheduler) scanReap(b *bucket) (Time, bool) {
	var head, tail *event
	min := Never
	for e := b.head; e != nil; {
		next := e.next
		if e.cancel {
			s.retire(e)
		} else {
			e.next = nil
			if head == nil {
				head = e
			} else {
				tail.next = e
			}
			tail = e
			if e.at < min {
				min = e.at
			}
		}
		e = next
	}
	b.head, b.tail = head, tail
	return min, head != nil
}

// cancel removes e from the schedule if it has not fired: the event is
// marked dead in O(1) and reaped when its bucket is next visited — no
// restructuring. It is safe to call multiple times and on nil.
func (s *Scheduler) cancel(e *event) {
	if e == nil || e.fired || e.cancel {
		return
	}
	e.cancel = true
	// The closure is dead weight from here on.
	e.fn, e.fnArg, e.arg = nil, nil, nil
	s.nCanc++
	if o := e.owner; o != nil {
		o.live--
		if o.peek == e {
			o.peek = nil
		}
	}
}

// stepUntil executes the earliest pending event if its timestamp is at or
// before deadline, advancing the clock to it, and reports whether an event
// fired. It is careful to mutate nothing user-visible (beyond reaping dead
// events) when the answer is "no": cascades only happen once an event at
// or before the deadline is known to exist.
func (s *Scheduler) stepUntil(deadline Time) bool {
	// Fastest path: the cached earliest event, fired straight off its L0
	// bucket without the bitmap walk when it sits at the head.
	if e := s.peek; e != nil {
		if e.at > deadline {
			return false
		}
		sl := int(uint64(e.at)) & (wheelL0Slots - 1)
		wh := s.w
		bkt := &wh.l0[sl]
		if bkt.head == e {
			s.peek = nil
			bkt.head = e.next
			if bkt.head == nil {
				bkt.tail = nil
				s.clearL0(wh, sl)
			}
			s.now = e.at
			e.fired = true
			s.executed++
			s.live--
			s.nExec++
			fn, fnArg, arg := e.fn, e.fnArg, e.arg
			s.retire(e)
			if fnArg != nil {
				fnArg(arg)
			} else {
				fn()
			}
			return true
		}
		// Peek is valid but not an L0 head (upper level, or behind a
		// dead prefix): fall back to the scan.
		s.peek = nil
	}
	wh := s.w
	if wh == nil {
		return false // nothing was ever scheduled
	}
	for {
		// Fast path: L0 holds the events of the 4096 ns window around
		// now; its earliest occupied slot is the global minimum.
		if s.l0sum != 0 {
			w := bits.TrailingZeros64(s.l0sum) & 63
			bb := bits.TrailingZeros64(wh.l0occ[w]) & 63
			sl := w<<6 | bb
			bkt := &wh.l0[sl]
			e := bkt.head
			for e != nil && e.cancel {
				bkt.head = e.next
				s.retire(e)
				e = bkt.head
			}
			if e == nil {
				bkt.tail = nil
				s.clearL0(wh, sl)
				continue
			}
			if e.at > deadline {
				return false
			}
			bkt.head = e.next
			if bkt.head == nil {
				bkt.tail = nil
				s.clearL0(wh, sl)
			}
			s.now = e.at
			e.fired = true
			s.executed++
			s.live--
			s.nExec++
			fn, fnArg, arg := e.fn, e.fnArg, e.arg
			// Retire before invoking: e is off the wheel and, if
			// detached, has no outstanding references, so the callback
			// may immediately reuse the slot for events it schedules.
			s.retire(e)
			if fnArg != nil {
				fnArg(arg)
			} else {
				fn()
			}
			return true
		}

		// L0 drained: cascade the earliest occupied upper bucket. The
		// lowest occupied level's lowest occupied slot holds the global
		// minimum (all levels share their upper timestamp bits with now).
		lvl := -1
		for i := range wh.occ {
			if wh.occ[i] != 0 {
				lvl = i
				break
			}
		}
		if lvl < 0 {
			return false // the wheel is empty
		}
		sl := bits.TrailingZeros64(wh.occ[lvl])
		bkt := &wh.lv[lvl][sl]
		minAt, ok := s.scanReap(bkt)
		if !ok {
			wh.occ[lvl] &^= 1 << uint(sl)
			continue
		}
		if minAt > deadline {
			return false
		}
		// Advance the clock to the bucket's span start — there is provably
		// nothing pending in between — then re-insert its events, which now
		// land strictly below lvl.
		shift := uint(wheelL0Bits + lvl*wheelLvlBits)
		start := minAt &^ (Time(1)<<shift - 1)
		head := bkt.head
		bkt.head, bkt.tail = nil, nil
		wh.occ[lvl] &^= 1 << uint(sl)
		if start > s.now {
			s.now = start
		}
		for e := head; e != nil; {
			next := e.next
			s.insert(e)
			e = next
		}
	}
}

// Run executes events until the schedule drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.stepUntil(Never) {
	}
	s.flushMetrics()
}

// advanceClock moves the clock forward to `to` after every event <= `to`
// has fired. A jump that leaves the current L0 window invalidates the wheel
// position of upper-level buckets lying on the clock's new path: their
// events now share their whole level field with the clock, so the
// lowest-occupied-slot-is-the-minimum invariant only survives if they
// cascade down. Exactly one bucket per level (the slot `to` itself indexes)
// can be affected — events in any other slot still differ from the clock in
// that level's field, and events above a field `to` crossed would have
// timestamps below `to` and have already fired.
func (s *Scheduler) advanceClock(to Time) {
	old := s.now
	s.now = to
	wh := s.w
	if wh == nil || uint64(old)>>wheelL0Bits == uint64(to)>>wheelL0Bits {
		return // nothing placed yet, or same L0 window: every placement is still valid
	}
	for l := 0; l < wheelUpper; l++ {
		shift := uint(wheelL0Bits + l*wheelLvlBits)
		sl := int(uint64(to)>>shift) & (wheelSlots - 1)
		if wh.occ[l]&(1<<uint(sl)) == 0 {
			continue
		}
		bkt := &wh.lv[l][sl]
		head := bkt.head
		bkt.head, bkt.tail = nil, nil
		wh.occ[l] &^= 1 << uint(sl)
		for e := head; e != nil; {
			next := e.next
			if e.cancel {
				s.retire(e)
			} else {
				s.insert(e) // lands strictly below level l
			}
			e = next
		}
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to the deadline (if it is later than the last event executed). Events
// scheduled beyond the deadline remain queued.
func (s *Scheduler) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped && s.stepUntil(deadline) {
	}
	if !s.stopped && s.now < deadline {
		s.advanceClock(deadline)
	}
	s.flushMetrics()
}

// RunFor advances the simulation by d. Shorthand for RunUntil(Now+d).
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// Recycle ends the scheduler's life and donates its run memory — the event
// freelist, every event still queued that no caller can reach, and the Locals
// of the packages built on it — to the depot, where the next scheduler finds
// it warm instead of allocating its working set one object at a time. Call it
// when a hermetic run has ended and its results are read out.
//
// Queued events are discarded, not fired. Detached events and the pending
// expiries of Timers and Tickers are reaped exactly as retire would (callback
// dropped, generation bumped); a handled event may still have a Handle
// outstanding, whose Cancelled/Fired answers depend on the slot staying its
// own, so those are unlinked and left to the collector.
//
// Nothing built on the scheduler may be used afterwards: scheduling panics,
// and every object obtained through a Local or FreeList now belongs to the
// next run. Timers and Tickers are inert rather than dangerous — they check
// the scheduler's recycled mark, so Stop, Active and Deadline read them as
// stopped — and the clock and the executed count stay readable.
func (s *Scheduler) Recycle() {
	m := s.memory()
	wh := m.wheel
	if n := int(m.born); cap(m.order) < n {
		m.order = make([]*event, n, n+n/4)
	} else {
		m.order = m.order[:n]
	}
	rest := func(e *event) {
		// Zero everything except the generation and the birth number: a
		// stale Handle from this scheduler's life must still mismatch after
		// the event serves a future scheduler, and a resting event must not
		// pin this scheduler through owner.
		*e = event{gen: e.gen, born: e.born}
		m.order[e.born] = e
	}
	reap := func(b *bucket) {
		for e := b.head; e != nil; {
			next := e.next
			if e.detached {
				e.gen++
				rest(e)
			} else {
				e.next = nil
			}
			e = next
		}
		*b = bucket{}
	}
	for sum := s.l0sum; sum != 0; sum &= sum - 1 {
		w := bits.TrailingZeros64(sum)
		for occ := wh.l0occ[w]; occ != 0; occ &= occ - 1 {
			reap(&wh.l0[w<<6|bits.TrailingZeros64(occ)])
		}
		wh.l0occ[w] = 0
	}
	s.l0sum = 0
	for l := range wh.occ {
		for occ := wh.occ[l]; occ != 0; occ &= occ - 1 {
			reap(&wh.lv[l][bits.TrailingZeros64(occ)])
		}
		wh.occ[l] = 0
	}
	s.live, s.peek = 0, nil
	for _, chain := range []*event{s.free, m.events} { // m.events: what this life never drew
		for e := chain; e != nil; {
			next := e.next
			rest(e)
			e = next
		}
	}
	s.free = nil
	m.relink()
	s.mem, s.w, s.recycled = nil, nil, true
	m.donate()
}

// Stop halts Run/RunUntil after the current callback returns. Pending events
// are preserved; the simulation can be resumed.
func (s *Scheduler) Stop() { s.stopped = true }

// NextEventAt returns the timestamp of the earliest pending event, or Never
// if nothing is scheduled. It never advances the clock or reorders events;
// dead events encountered during the scan are reaped.
func (s *Scheduler) NextEventAt() Time {
	if s.peek != nil {
		return s.peek.at
	}
	wh := s.w
	if wh == nil {
		return Never
	}
	for {
		if s.l0sum != 0 {
			w := bits.TrailingZeros64(s.l0sum)
			bb := bits.TrailingZeros64(wh.l0occ[w])
			sl := w<<6 | bb
			bkt := &wh.l0[sl]
			e := bkt.head
			for e != nil && e.cancel {
				bkt.head = e.next
				s.retire(e)
				e = bkt.head
			}
			if e == nil {
				bkt.tail = nil
				s.clearL0(wh, sl)
				continue
			}
			return e.at
		}
		lvl := -1
		for i := range wh.occ {
			if wh.occ[i] != 0 {
				lvl = i
				break
			}
		}
		if lvl < 0 {
			return Never
		}
		sl := bits.TrailingZeros64(wh.occ[lvl])
		minAt, ok := s.scanReap(&wh.lv[lvl][sl])
		if !ok {
			wh.occ[lvl] &^= 1 << uint(sl)
			continue
		}
		return minAt
	}
}
