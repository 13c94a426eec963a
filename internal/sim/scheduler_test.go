package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/metrics"
)

func TestSchedulerZeroValueReady(t *testing.T) {
	var s Scheduler
	ran := false
	s.Schedule(10, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("event did not run")
	}
	if s.Now() != 10 {
		t.Fatalf("Now = %v, want 10", s.Now())
	}
}

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.Schedule(30, func() { order = append(order, 3) })
	s.Schedule(10, func() { order = append(order, 1) })
	s.Schedule(20, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run()
	if len(order) != 100 {
		t.Fatalf("ran %d events, want 100", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler()
	s.Schedule(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.Schedule(5, func() {})
}

func TestScheduleAtNowRuns(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.Schedule(10, func() {
		s.Schedule(s.Now(), func() { ran = true })
	})
	s.Run()
	if !ran {
		t.Fatal("event at current instant did not run")
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	e := s.Schedule(10, func() { ran = true })
	e.Cancel()
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if !e.valid() || !e.e.cancel || e.e.fired {
		t.Fatal("cancelled event not marked cancelled, or marked fired")
	}
	// Double-cancel and the zero Handle are no-ops.
	e.Cancel()
	Handle{}.Cancel()
	s.cancel(nil)
}

func TestCancelFromWithinEvent(t *testing.T) {
	s := NewScheduler()
	ran := false
	var victim Handle
	s.Schedule(5, func() { victim.Cancel() })
	victim = s.Schedule(10, func() { ran = true })
	s.Run()
	if ran {
		t.Fatal("event cancelled mid-run still ran")
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var ran []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.Schedule(at, func() { ran = append(ran, at) })
	}
	s.RunUntil(25)
	if len(ran) != 2 {
		t.Fatalf("ran %d events, want 2", len(ran))
	}
	if s.Now() != 25 {
		t.Fatalf("Now = %v, want 25", s.Now())
	}
	s.RunUntil(100)
	if len(ran) != 4 {
		t.Fatalf("ran %d events total, want 4", len(ran))
	}
	if s.Now() != 100 {
		t.Fatalf("Now = %v, want 100", s.Now())
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	s := NewScheduler()
	s.RunFor(50 * Nanosecond)
	if s.Now() != 50 {
		t.Fatalf("Now = %v, want 50", s.Now())
	}
	s.RunFor(50 * Nanosecond)
	if s.Now() != 100 {
		t.Fatalf("Now = %v, want 100", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := Time(1); i <= 10; i++ {
		s.Schedule(i, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("ran %d events before Stop, want 3", count)
	}
	// Resume.
	s.Run()
	if count != 10 {
		t.Fatalf("ran %d events after resume, want 10", count)
	}
}

func TestNextEventAt(t *testing.T) {
	s := NewScheduler()
	if got := s.NextEventAt(); got != Never {
		t.Fatalf("empty queue NextEventAt = %v, want Never", got)
	}
	e := s.Schedule(42, func() {})
	if got := s.NextEventAt(); got != 42 {
		t.Fatalf("NextEventAt = %v, want 42", got)
	}
	e.Cancel()
	if got := s.NextEventAt(); got != Never {
		t.Fatalf("after cancel NextEventAt = %v, want Never", got)
	}
}

func TestSchedulerPropertyOrdering(t *testing.T) {
	// Property: for any multiset of timestamps, execution order is the
	// sorted order (stable for duplicates by insertion).
	f := func(stamps []uint16) bool {
		s := NewScheduler()
		var got []Time
		for _, st := range stamps {
			at := Time(st)
			s.Schedule(at, func() { got = append(got, at) })
		}
		s.Run()
		if len(got) != len(stamps) {
			return false
		}
		want := make([]Time, 0, len(stamps))
		for _, st := range stamps {
			want = append(want, Time(st))
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerRandomCancellation(t *testing.T) {
	// Fuzz-style: random schedule/cancel interleaving must never execute a
	// cancelled event nor lose a live one.
	rnd := rand.New(rand.NewSource(7))
	s := NewScheduler()
	type tracked struct {
		ev        Handle
		cancelled bool
		ran       bool
	}
	var evs []*tracked
	for i := 0; i < 2000; i++ {
		tr := &tracked{}
		tr.ev = s.Schedule(Time(rnd.Intn(1000)), func() { tr.ran = true })
		evs = append(evs, tr)
		if rnd.Intn(3) == 0 {
			victim := evs[rnd.Intn(len(evs))]
			if !victim.ran {
				victim.ev.Cancel()
				victim.cancelled = true
			}
		}
	}
	s.Run()
	for i, tr := range evs {
		if tr.cancelled && tr.ran {
			t.Fatalf("event %d: cancelled but ran", i)
		}
		if !tr.cancelled && !tr.ran {
			t.Fatalf("event %d: live but never ran", i)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	var zero Time
	if got := zero.Add(3 * Second); got != Time(3*Second) {
		t.Fatalf("Add = %v", got)
	}
	if got := Never.Add(Second); got != Never {
		t.Fatal("Never.Add should stay Never")
	}
	if d := Time(5 * Second).Sub(Time(2 * Second)); d != 3*Second {
		t.Fatalf("Sub = %v, want 3s", d)
	}
	if !Time(1).Before(Time(2)) || Time(2).Before(Time(1)) {
		t.Fatal("Before broken")
	}
	if !Time(2).After(Time(1)) || Time(1).After(Time(2)) {
		t.Fatal("After broken")
	}
	if MinTime(3, 5) != 3 || MaxTime(3, 5) != 5 {
		t.Fatal("Min/MaxTime broken")
	}
	if got := Time(1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", got)
	}
	if Never.String() != "never" {
		t.Fatalf("Never.String = %q", Never.String())
	}
	if Time(time.Second).String() != "1s" {
		t.Fatalf("String = %q", Time(time.Second).String())
	}
}

func TestScale(t *testing.T) {
	if got := Scale(10*Millisecond, 4); got != 40*Millisecond {
		t.Fatalf("Scale = %v", got)
	}
	if got := Scale(Second, 0); got != 0 {
		t.Fatalf("Scale k=0 = %v, want 0", got)
	}
	if got := Scale(Duration(1<<62), 4); got != Duration(1<<63-1) {
		t.Fatalf("Scale overflow = %v, want saturated", got)
	}
}

func TestFormatRate(t *testing.T) {
	cases := map[float64]string{
		3e8:  "300 Mbps",
		1e9:  "1 Gbps",
		2400: "2.4 kbps",
		12:   "12 bps",
	}
	for in, want := range cases {
		if got := FormatRate(in); got != want {
			t.Errorf("FormatRate(%g) = %q, want %q", in, got, want)
		}
	}
}

// TestScheduleArgDetached exercises the shared-callback variant: events
// carry per-item state through arg instead of a per-event closure, fire in
// timestamp-then-FIFO order like any other event, and interleave correctly
// with closure events at the same instant.
func TestScheduleArgDetached(t *testing.T) {
	s := NewScheduler()
	var got []int
	record := func(v any) { got = append(got, *v.(*int)) }
	vals := []int{10, 20, 30, 40}
	s.ScheduleArgDetached(Time(5), record, &vals[1])
	s.ScheduleArgDetached(Time(2), record, &vals[0])
	s.ScheduleArgDetached(Time(5), record, &vals[2]) // same instant: FIFO after vals[1]
	s.Schedule(Time(5), func() { got = append(got, 35) })
	s.ScheduleArgDetached(Time(9), record, &vals[3])
	s.Run()
	want := []int{10, 20, 30, 35, 40}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

// TestScheduleArgDetachedRecycles pins the allocation contract: pointer
// args thread through the event freelist without boxing, so the steady
// state is allocation-free.
func TestScheduleArgDetachedRecycles(t *testing.T) {
	s := NewScheduler()
	var fired int
	var arg int
	var tick func(any)
	tick = func(v any) {
		fired++
		if fired < 1000 {
			s.ScheduleArgDetached(s.Now().Add(Microsecond), tick, v)
		}
	}
	s.ScheduleArgDetached(s.Now().Add(Microsecond), tick, &arg)
	s.Run() // warm the freelist
	allocs := testing.AllocsPerRun(10, func() {
		fired = 0
		s.ScheduleArgDetached(s.Now().Add(Microsecond), tick, &arg)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state arg events allocated %.1f/run, want 0", allocs)
	}
}

// TestHandleStaleAfterRecycle pins the generation contract: once a handled
// event fires, its slot may be reused immediately, and the stale handle must
// (a) no longer refer to the slot, (b) refuse to cancel the new occupant.
func TestHandleStaleAfterRecycle(t *testing.T) {
	s := NewScheduler()
	h1 := s.Schedule(10, func() {})
	s.Run()
	if h1.valid() {
		t.Fatal("a fired handle still refers to its recycled slot")
	}
	ran := false
	s.Schedule(20, func() { ran = true })
	h1.Cancel() // stale: must not touch the recycled slot
	s.Run()
	if !ran {
		t.Fatal("stale handle cancelled the slot's new occupant")
	}
	var zero Handle
	zero.Cancel()
	if zero.valid() {
		t.Fatal("zero Handle is not inert")
	}
}

// TestHandleChurnAllocFree pins the satellite of ISSUE 8: the handle path
// recycles fired events like the detached path, so steady-state churn through
// Schedule/ScheduleAfter is allocation-free.
func TestHandleChurnAllocFree(t *testing.T) {
	s := NewScheduler()
	var fired int
	var tick func()
	tick = func() {
		fired++
		if fired < 1000 {
			s.ScheduleAfter(Microsecond, tick)
		}
	}
	s.ScheduleAfter(Microsecond, tick)
	s.Run() // warm the freelist
	allocs := testing.AllocsPerRun(10, func() {
		fired = 0
		s.ScheduleAfter(Microsecond, tick)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state handle events allocated %.1f/run, want 0", allocs)
	}
}

// BenchmarkSchedulerChurn measures the schedule→fire cycle that dominates a
// simulation run, with a live metrics registry attached — the instrumented
// path is the production path. Detached events recycle through the
// scheduler's freelist, so the steady state should run allocation-free.
func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	s.Instrument(metrics.New())
	var fired int
	var tick func()
	tick = func() {
		fired++
		if fired < b.N {
			s.ScheduleAfterDetached(Microsecond, tick)
		}
	}
	b.ReportAllocs()
	s.ScheduleAfterDetached(Microsecond, tick)
	s.Run()
	if fired != b.N {
		b.Fatalf("fired %d, want %d", fired, b.N)
	}
}

// BenchmarkSchedulerChurnHandles covers the handle-returning path. Handles
// are generation-checked values, so fired events recycle through the same
// freelist as the detached path: steady state is 0 allocs/op here too.
func BenchmarkSchedulerChurnHandles(b *testing.B) {
	s := NewScheduler()
	var fired int
	var tick func()
	tick = func() {
		fired++
		if fired < b.N {
			s.ScheduleAfter(Microsecond, tick)
		}
	}
	b.ReportAllocs()
	s.ScheduleAfter(Microsecond, tick)
	s.Run()
	if fired != b.N {
		b.Fatalf("fired %d, want %d", fired, b.N)
	}
}

// BenchmarkSchedulerChurnDepth10k is BenchmarkSchedulerChurn with 10k
// far-future events pending throughout — the standing population of failure
// timers, checkpoint deadlines, and queued deliveries a saturated sweep
// carries. A comparison-based queue pays O(log n) per operation for that
// depth; a timer wheel should not care.
func BenchmarkSchedulerChurnDepth10k(b *testing.B) {
	s := NewScheduler()
	s.Instrument(metrics.New())
	for i := 0; i < 10000; i++ {
		s.ScheduleDetached(Time(time.Hour)+Time(i)*Time(Millisecond), func() {})
	}
	var fired int
	var tick func()
	tick = func() {
		fired++
		if fired < b.N {
			s.ScheduleAfterDetached(Microsecond, tick)
		}
	}
	b.ReportAllocs()
	s.ScheduleAfterDetached(Microsecond, tick)
	for fired < b.N && s.stepUntil(Never) {
	}
	if fired != b.N {
		b.Fatalf("fired %d, want %d", fired, b.N)
	}
}

// BenchmarkTimerRestart measures the arm/cancel cycle of a protocol timer
// that almost never expires — the failure timer armed per Request-NAK and
// stopped by the Enforced-NAK, restarted here once per simulated frame.
func BenchmarkTimerRestart(b *testing.B) {
	s := NewScheduler()
	s.Instrument(metrics.New())
	expired := 0
	t := NewTimer(s, func() { expired++ })
	var fired int
	var tick func()
	tick = func() {
		fired++
		t.Start(Millisecond) // long deadline: cancelled by the next tick
		if fired < b.N {
			s.ScheduleAfterDetached(Microsecond, tick)
		}
	}
	b.ReportAllocs()
	s.ScheduleAfterDetached(Microsecond, tick)
	s.Run()
	if fired != b.N {
		b.Fatalf("fired %d, want %d", fired, b.N)
	}
	_ = expired
}

// TestSchedulerFillsItsSizeClass pins the padding that keeps two schedulers
// driven by different goroutines off one cache line: whoever adds a field
// shrinks the pad by as much.
func TestSchedulerFillsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Scheduler{}); got != 256 {
		t.Fatalf("Scheduler is %d bytes, want 256: adjust the trailing pad", got)
	}
}
