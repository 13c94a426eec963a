package sim

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

// emptyDepot drops every resting run memory, so a test's first scheduler
// starts cold whatever ran before it.
func emptyDepot() {
	depot.Lock()
	depot.mems = nil
	depot.Unlock()
}

type item struct {
	id    int
	owner atomic.Int32 // goroutine holding it, 0 while on a list
}

var items = NewFreeList[item]()

func TestFreeListLIFO(t *testing.T) {
	emptyDepot()
	s := NewScheduler()
	a, b := items.Get(s), items.Get(s)
	if a == b {
		t.Fatal("Get handed out one object twice")
	}
	items.Put(s, a)
	items.Put(s, b)
	if got := items.Get(s); got != b {
		t.Fatal("Get did not return the most recent Put")
	}
	if got := items.Get(s); got != a {
		t.Fatal("second Get did not return the earlier Put")
	}
	if got := items.Get(s); got == a || got == b {
		t.Fatal("an empty list handed out a held object")
	}
}

// TestFreeListTravelsOnlyThroughRecycle pins the scope: what scheduler A Puts
// is invisible to scheduler B until A's Recycle donates it, and then the next
// scheduler to start finds it.
func TestFreeListTravelsOnlyThroughRecycle(t *testing.T) {
	emptyDepot()
	a, b := NewScheduler(), NewScheduler()
	x := items.Get(a)
	items.Put(a, x)
	if got := items.Get(b); got == x {
		t.Fatal("scheduler B was handed an object Put through live scheduler A")
	}
	a.Recycle()
	c := NewScheduler()
	if got := items.Get(c); got != x {
		t.Fatal("the scheduler that adopted A's memory did not find A's object")
	}
}

// TestLocalSurvivesRecycle pins Local: zero on first use, one instance per
// scheduler, handed to the adopter in the state the last run left it.
func TestLocalSurvivesRecycle(t *testing.T) {
	emptyDepot()
	counter := NewLocal[int]()
	a, b := NewScheduler(), NewScheduler()
	if *counter.Of(a) != 0 || counter.Of(a) == counter.Of(b) {
		t.Fatal("Local is not a zero value per scheduler")
	}
	*counter.Of(a) = 7
	if counter.Of(a) != counter.Of(a) || *counter.Of(b) != 0 {
		t.Fatal("Local is not stable within a scheduler")
	}
	a.Recycle()
	if got := *counter.Of(NewScheduler()); got != 7 {
		t.Fatalf("adopter read %d, want the 7 the last run left", got)
	}
}

func TestDepotIsBounded(t *testing.T) {
	emptyDepot()
	const n = depotCap + 5
	scheds := make([]*Scheduler, n)
	for i := range scheds {
		scheds[i] = NewScheduler()
		items.Put(scheds[i], &item{id: i + 1})
	}
	for _, s := range scheds {
		s.Recycle()
	}
	depot.Lock()
	resting := len(depot.mems)
	depot.Unlock()
	if resting != depotCap {
		t.Fatalf("%d run memories rest in the depot, want the cap %d", resting, depotCap)
	}
	warm := 0
	for i := 0; i < n; i++ {
		if items.Get(NewScheduler()).id != 0 {
			warm++
		}
	}
	if warm != depotCap {
		t.Fatalf("%d of %d new schedulers started warm, want %d", warm, n, depotCap)
	}
}

// TestRunMemoryOneOwnerAtATime is the -race pin: goroutines that each build a
// scheduler, churn a free list and events on it and Recycle never hold the
// same object at once, with no lock but the depot's one per run.
func TestRunMemoryOneOwnerAtATime(t *testing.T) {
	const goroutines, runs, held = 8, 200, 16
	var wg sync.WaitGroup
	for g := int32(1); g <= goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine [held]*item
			for r := 0; r < runs; r++ {
				s := NewScheduler()
				for i := range mine {
					mine[i] = items.Get(s)
					if !mine[i].owner.CompareAndSwap(0, g) {
						t.Errorf("goroutine %d was handed an object goroutine %d holds", g, mine[i].owner.Load())
						return
					}
					s.ScheduleAfterDetached(Duration(i), func() {})
				}
				s.RunFor(held / 2) // leave half the events on the wheel for Recycle to reap
				for _, it := range mine {
					it.owner.Store(0)
					items.Put(s, it)
				}
				s.Recycle()
			}
		}()
	}
	wg.Wait()
}

// TestRecycleReapsTheWheel pins what Recycle gives back and what it must not:
// every detached and timer-owned event still queued joins the donated chain,
// handled ones stay their Handle's, and the adopter's reuse of the chain does
// not count as recycling. The wheel's bucket arrays travel too, and are handed
// over unzeroed: Recycle must leave every bucket and occupancy word empty.
func TestRecycleReapsTheWheel(t *testing.T) {
	emptyDepot()
	s := NewScheduler()
	fired := 0
	for i := 0; i < 3; i++ {
		s.ScheduleDetached(Time(10+i), func() { fired++ }) // these fire: the freelist
	}
	s.RunUntil(20)
	s.ScheduleDetached(5*Time(Second), func() { fired++ }) // upper wheel level
	s.ScheduleDetached(Time(1)<<60, func() { fired++ })    // overflow ladder
	s.ScheduleAfterDetached(1, func() { fired++ })         // level 0
	timer := NewTimer(s, func() { fired++ })
	timer.Start(Millisecond)
	ticker := NewTicker(s, Millisecond, func() { fired++ })
	ticker.Start()
	stopped := NewTimer(s, func() { fired++ })
	stopped.Start(Millisecond)
	stopped.Stop() // cancelled, not yet reaped: still on the wheel
	pending := s.Schedule(30, func() { fired++ })
	cancelled := s.Schedule(40, func() { fired++ })
	cancelled.Cancel()

	s.Recycle()
	if s.Len() != 0 || s.NextEventAt() != Never {
		t.Fatalf("recycled scheduler still holds %d events, next at %v", s.Len(), s.NextEventAt())
	}
	if s.Now() != 20 || s.Executed() != 3 {
		t.Fatalf("clock %v, executed %d after Recycle; want them readable as 20, 3", s.Now(), s.Executed())
	}
	if timer.Active() || timer.Stop() || timer.Deadline() != Never {
		t.Fatal("a timer whose expiry was reaped does not read as stopped")
	}
	ticker.Stop() // must not reach into the reaped slot
	if !pending.Active() || !cancelled.Cancelled() || cancelled.Fired() {
		t.Fatal("handles of unfired handled events changed their answers")
	}
	pending.Cancel() // harmless on the dead scheduler

	depot.Lock()
	n := 0
	donated := depot.mems[len(depot.mems)-1].wheel
	if *donated != (wheel{}) {
		t.Error("Recycle left a bucket or an occupancy bit behind in the donated wheel")
	}
	for e := depot.mems[len(depot.mems)-1].events; e != nil; e = e.next {
		if e.fn != nil || e.fnArg != nil || e.arg != nil || e.owner != nil {
			t.Error("a donated event pins its callback or its scheduler")
		}
		n++
	}
	depot.Unlock()
	// The 3 queued detached events (in the slots of the 3 that fired), the
	// timer's and the ticker's expiries, and the stopped timer's.
	if n != 6 {
		t.Fatalf("%d events donated, want 6 (the two handled ones stay out)", n)
	}

	next := NewScheduler()
	reg := metrics.New()
	next.Instrument(reg)
	for i := 0; i < 6; i++ {
		next.ScheduleAfterDetached(Duration(1+i), func() {})
	}
	if next.mem.events != nil {
		t.Fatal("the adopter did not draw its events from the donated chain")
	}
	if next.w != donated {
		t.Fatal("the adopter did not take over the donated wheel")
	}
	next.Run()
	timer.Stop() // a stale timer must not cancel the slot's new occupant
	if got := reg.Snapshot().Counters["sim_events_recycled_total"]; got != 0 {
		t.Fatalf("adopted events counted as %d recycles; the counter must be run-local", got)
	}
	if fired != 3 {
		t.Fatalf("%d callbacks ran, want only the 3 before Recycle", fired)
	}
}

// TestStaleTimerCannotCancelTheNextRun is the safety half of reaping: the
// slot a timer pointed at serves another scheduler now, and the timer's Stop
// must leave it alone.
func TestStaleTimerCannotCancelTheNextRun(t *testing.T) {
	emptyDepot()
	old := NewScheduler()
	stale := NewTimer(old, func() {})
	stale.Start(Second)
	old.Recycle()

	next := NewScheduler()
	ran := false
	next.ScheduleAfterDetached(Second, func() { ran = true }) // takes the reaped slot
	if stale.Stop() {
		t.Fatal("a timer of a recycled scheduler reported a pending expiry")
	}
	next.Run()
	if !ran {
		t.Fatal("a stale timer cancelled the next run's event")
	}
}

func TestScheduleAfterRecyclePanics(t *testing.T) {
	s := NewScheduler()
	s.ScheduleAfterDetached(1, func() {})
	s.Recycle()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "after Recycle") {
			t.Fatalf("scheduling on a recycled scheduler: recovered %v, want the after-Recycle panic", r)
		}
	}()
	s.ScheduleAfterDetached(1, func() {})
}

// TestDonatedEventsKeepBirthOrder pins the locality rule: whatever order a
// run fired, cancelled and left its events in, the next run is handed them in
// the order they were first allocated — and again after that run, with the
// events it added behind them and the ones it lost closed up.
func TestDonatedEventsKeepBirthOrder(t *testing.T) {
	emptyDepot()
	s := NewScheduler()
	const n = 50
	var born []*Event
	for i := 0; i < n; i++ {
		// Delays scattered over wheel levels, so firing and reaping order
		// have nothing to do with allocation order.
		born = append(born, s.schedule(Time((i*7919)%n+1)*Time(Millisecond), func() {}, nil, nil, true))
	}
	s.RunUntil(Time(n/2) * Time(Millisecond)) // half fire (freelist), half stay (wheel)
	s.Recycle()

	next := NewScheduler()
	lost := next.Schedule(1, func() {}) // a handled event that never fires is not donated
	if lost.e != born[0] {
		t.Fatal("the adopter's first event is not the first one ever allocated")
	}
	for i := 1; i < n; i++ {
		if got := next.schedule(Time(i+1), func() {}, nil, nil, true); got != born[i] {
			t.Fatalf("the adopter's event %d is not allocation %d of the first run", i, i)
		}
	}
	extra := next.schedule(Time(n+1), func() {}, nil, nil, true) // beyond what was donated
	next.Recycle()

	third := NewScheduler()
	for i := 1; i < n; i++ {
		if got := third.schedule(Time(i), func() {}, nil, nil, true); got != born[i] || got.born != uint32(i-1) {
			t.Fatalf("third life: event %d out of order or not renumbered (born %d)", i, got.born)
		}
	}
	if got := third.schedule(Time(n), func() {}, nil, nil, true); got != extra {
		t.Fatal("third life: the second run's own event did not follow the first run's")
	}
	if third.mem.events != nil || third.mem.born != n {
		t.Fatalf("third life: %d events counted, want %d and an empty chain", third.mem.born, n)
	}
}
