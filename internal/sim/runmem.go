package sim

import (
	"sync"
	"sync/atomic"
)

// runMem is the run memory: everything a finished simulation can hand to the
// next one. A scheduler adopts one lazily, is its only user for its whole
// life, and donates it whole in Recycle; between lives it rests in the depot.
// Because exactly one scheduler — hence one goroutine at a time — owns a run
// memory, nothing in it is locked: a run pays one mutex operation to adopt
// and one to donate, none per object.
type runMem struct {
	// events chains the events earlier schedulers donated, zeroed but for
	// their generation. A scheduler draws on it only when its own freelist is
	// empty, and never counts the draw as a recycle (sim_events_recycled_total
	// is part of every run's snapshot, so it must not depend on which run
	// came before).
	//
	// The chain is in birth order — the order the events were first
	// allocated in, i.e. ascending addresses — so the next run is handed
	// them as a fresh run would be by the allocator. The wheel's cascades and
	// reaps walk chains of events, and handing out a free list in the order
	// it happened to be filled (reverse firing order, then reverse bucket
	// order) cost the 1,024-satellite run 10–17 % in cache misses. born
	// counts the memory's events; order is Recycle's table for sorting them
	// by birth in one pass, all nil between uses.
	events *Event
	born   uint32
	order  []*Event
	// wheel is the scheduler's bucket storage, all-empty between lives.
	wheel *wheel
	// slots holds one value per Local, indexed by Local.slot, nil until the
	// first Of.
	slots []any
}

// depotCap bounds the run memories resting between lives. One is in use per
// live scheduler — a bench worker, a constellation shard — so the depot holds
// as many as ever ran at once, up to this cap; a larger burst leaves its
// surplus to the collector. A run memory never shrinks (it keeps the peak
// population of every run it served), which is why the set has to be bounded:
// the cap times the largest run is the most the depot can pin.
const depotCap = 16

var depot struct {
	sync.Mutex
	mems []*runMem
}

// memory returns the scheduler's run memory, adopting the depot's most
// recently donated one (or starting an empty one) on first use.
func (s *Scheduler) memory() *runMem {
	if s.mem != nil {
		return s.mem
	}
	if s.recycled {
		panic("sim: scheduler used after Recycle")
	}
	depot.Lock()
	if n := len(depot.mems); n > 0 {
		s.mem, depot.mems[n-1] = depot.mems[n-1], nil
		depot.mems = depot.mems[:n-1]
	}
	depot.Unlock()
	if s.mem == nil {
		s.mem = &runMem{wheel: new(wheel)}
	}
	s.w = s.mem.wheel
	return s.mem
}

// relink rebuilds events from order: every event Recycle rested, in birth
// order, renumbered without the gaps that events left to the collector (a
// handled event that never fired) would otherwise leave for good.
func (m *runMem) relink() {
	m.born = 0
	tail := &m.events
	for i, e := range m.order {
		if e == nil {
			continue
		}
		m.order[i] = nil
		e.born = m.born
		m.born++
		*tail = e
		tail = &e.next
	}
	*tail = nil
}

// donate returns the run memory to the depot, or drops it when the depot is
// full.
func (m *runMem) donate() {
	depot.Lock()
	if len(depot.mems) < depotCap {
		depot.mems = append(depot.mems, m)
	}
	depot.Unlock()
}

// localSlots numbers the Locals of the process.
var localSlots atomic.Int32

// Local is a scheduler-scoped variable: one *T per run memory, created zero
// on first use, kept across Recycle and found again — in whatever state the
// last run left it — by the next scheduler that adopts the memory. Declare
// one per package-level use with NewLocal. Of may be called only from the
// goroutine driving the scheduler (or before it starts).
type Local[T any] struct{ slot int }

// NewLocal reserves a slot in every run memory.
func NewLocal[T any]() Local[T] {
	return Local[T]{slot: int(localSlots.Add(1)) - 1}
}

// Of returns s's instance.
func (l Local[T]) Of(s *Scheduler) *T {
	m := s.memory()
	if l.slot < len(m.slots) {
		if v := m.slots[l.slot]; v != nil {
			return v.(*T)
		}
	}
	for len(m.slots) <= l.slot {
		m.slots = append(m.slots, nil)
	}
	v := new(T)
	m.slots[l.slot] = v
	return v
}

// FreeList is a scheduler-scoped LIFO free list of *T: what one run Puts, it
// or the next run on the same run memory Gets, with no lock and no collector
// in between — the standard library's pool is emptied by every collection, so
// that how much a run allocated depended on when the collector last ran. The
// caller zeroes what it Puts, as with any free list. Objects still held when the
// scheduler is recycled are simply not donated.
type FreeList[T any] struct{ items Local[[]*T] }

// NewFreeList reserves the list's slot in every run memory.
func NewFreeList[T any]() FreeList[T] {
	return FreeList[T]{items: NewLocal[[]*T]()}
}

// Get pops the most recently Put object, or allocates a zero one.
func (l FreeList[T]) Get(s *Scheduler) *T {
	items := l.items.Of(s)
	n := len(*items)
	if n == 0 {
		return new(T)
	}
	v := (*items)[n-1]
	(*items)[n-1] = nil
	*items = (*items)[:n-1]
	return v
}

// Put makes v available to Get on s and, after s.Recycle, on the scheduler
// that adopts its memory.
func (l FreeList[T]) Put(s *Scheduler, v *T) {
	items := l.items.Of(s)
	*items = append(*items, v)
}
