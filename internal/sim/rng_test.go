package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds coincided %d/1000 times", same)
	}
}

func TestRNGZeroSeedValid(t *testing.T) {
	r := NewRNG(0)
	var zeros int
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Fatalf("zero seed produced %d zero outputs", zeros)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(2)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered %d values, want 7", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestInt63n(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 1000; i++ {
		v := r.Int63n(1 << 40)
		if v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(4)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	if r.Bernoulli(-0.5) || !r.Bernoulli(1.5) {
		t.Fatal("clamping broken")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("Exp mean = %v, want ~2.5", mean)
	}
	if r.Exp(0) != 0 || r.Exp(-1) != 0 {
		t.Fatal("non-positive mean should yield 0")
	}
}

func TestExpDuration(t *testing.T) {
	r := NewRNG(11)
	var sum Duration
	const n = 100000
	for i := 0; i < n; i++ {
		d := r.ExpDuration(10 * Millisecond)
		if d < 0 {
			t.Fatalf("negative duration %v", d)
		}
		sum += d
	}
	mean := sum / n
	if mean < 9*Millisecond || mean > 11*Millisecond {
		t.Fatalf("ExpDuration mean = %v, want ~10ms", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(8)
	for n := 0; n < 20; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(10)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams coincided %d/1000 times", same)
	}
}

func TestTimerBasics(t *testing.T) {
	s := NewScheduler()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	if tm.Active() {
		t.Fatal("new timer should be stopped")
	}
	if tm.Deadline() != Never {
		t.Fatal("stopped timer deadline should be Never")
	}
	tm.Start(10 * Millisecond)
	if !tm.Active() {
		t.Fatal("started timer should be active")
	}
	if tm.Deadline() != Time(10*Millisecond) {
		t.Fatalf("deadline = %v", tm.Deadline())
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if tm.Active() {
		t.Fatal("expired timer should be inactive")
	}
}

func TestTimerRestartReplacesDeadline(t *testing.T) {
	s := NewScheduler()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	tm.Start(10 * Millisecond)
	tm.Start(30 * Millisecond) // restart pushes deadline out
	s.RunUntil(Time(20 * Millisecond))
	if fired != 0 {
		t.Fatal("timer fired at superseded deadline")
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	tm.Start(10 * Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop should report a pending expiry was cancelled")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report nothing pending")
	}
	s.Run()
	if fired != 0 {
		t.Fatal("stopped timer fired")
	}
}

func TestTickerPeriodic(t *testing.T) {
	s := NewScheduler()
	var at []Time
	tk := NewTicker(s, 10*Millisecond, func() { at = append(at, s.Now()) })
	tk.Start()
	s.RunUntil(Time(35 * Millisecond))
	if len(at) != 3 {
		t.Fatalf("ticked %d times, want 3 (at %v)", len(at), at)
	}
	for i, want := range []Time{Time(10 * Millisecond), Time(20 * Millisecond), Time(30 * Millisecond)} {
		if at[i] != want {
			t.Fatalf("tick %d at %v, want %v", i, at[i], want)
		}
	}
	tk.Stop()
	s.RunUntil(Time(100 * Millisecond))
	if len(at) != 3 {
		t.Fatal("ticker ticked after Stop")
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	s := NewScheduler()
	ticks := 0
	var tk *Ticker
	tk = NewTicker(s, Millisecond, func() {
		ticks++
		if ticks == 2 {
			tk.Stop()
		}
	})
	tk.Start()
	s.RunUntil(Time(Second))
	if ticks != 2 {
		t.Fatalf("ticked %d times, want 2", ticks)
	}
	if tk.running {
		t.Fatal("ticker should be stopped")
	}
}

func TestTickerSetPeriod(t *testing.T) {
	s := NewScheduler()
	var at []Time
	tk := NewTicker(s, 10*Millisecond, func() { at = append(at, s.Now()) })
	tk.Start()
	s.RunUntil(Time(10 * Millisecond))
	// The pending tick (armed for 20ms) keeps its deadline; the 5ms period
	// applies to ticks after it.
	tk.SetPeriod(5 * Millisecond)
	s.RunUntil(Time(25 * Millisecond))
	want := []Time{Time(10 * Millisecond), Time(20 * Millisecond), Time(25 * Millisecond)}
	if len(at) != len(want) {
		t.Fatalf("ticks at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("ticks at %v, want %v", at, want)
		}
	}
}

func TestTimerNilArgsPanic(t *testing.T) {
	s := NewScheduler()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewTimer nil sched", func() { NewTimer(nil, func() {}) })
	mustPanic("NewTimer nil fn", func() { NewTimer(s, nil) })
	mustPanic("NewTicker bad period", func() { NewTicker(s, 0, func() {}) })
	mustPanic("NewTicker nil fn", func() { NewTicker(s, Second, nil) })
	mustPanic("Schedule nil fn", func() { s.Schedule(1, nil) })
}

func TestDeriveSeedDistinctAndStable(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		s := DeriveSeed(1, i)
		if s == 0 {
			t.Fatalf("DeriveSeed(1, %d) = 0", i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed collision: i=%d and i=%d", prev, i)
		}
		seen[s] = i
	}
	if DeriveSeed(1, 7) != DeriveSeed(1, 7) {
		t.Fatal("DeriveSeed is not a pure function")
	}
	if DeriveSeed(1, 7) == DeriveSeed(2, 7) {
		t.Fatal("DeriveSeed ignores the base seed")
	}
}
