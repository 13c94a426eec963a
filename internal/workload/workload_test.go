package workload

import (
	"math"
	"testing"

	"repro/internal/arq"
	"repro/internal/sim"
)

func TestConstantRate(t *testing.T) {
	sched := sim.NewScheduler()
	var got []arq.Datagram
	var at []sim.Time
	g := NewConstantRate(sched, func(dg arq.Datagram) bool {
		got = append(got, dg)
		at = append(at, sched.Now())
		return true
	}, 10*sim.Millisecond, 100, 5)
	sched.Run()
	if len(got) != 5 {
		t.Fatalf("offered %d", len(got))
	}
	for i, dg := range got {
		if dg.ID != uint64(i) {
			t.Fatalf("ID %d, want %d", dg.ID, i)
		}
		if len(dg.Payload) != 100 {
			t.Fatalf("size %d", len(dg.Payload))
		}
		if want := sim.Time(10 * sim.Millisecond * sim.Duration(i)); at[i] != want {
			t.Fatalf("arrival %d at %v, want %v", i, at[i], want)
		}
	}
	if g.remaining != 0 {
		t.Fatal("generator should be done")
	}
}

func TestConstantRateRetriesRefused(t *testing.T) {
	sched := sim.NewScheduler()
	reject := true
	var ids []uint64
	g := NewConstantRate(sched, func(dg arq.Datagram) bool {
		if reject {
			return false
		}
		ids = append(ids, dg.ID)
		return true
	}, sim.Millisecond, 10, 3)
	sched.RunFor(5 * sim.Millisecond)
	reject = false
	sched.RunFor(100 * sim.Millisecond)
	sched.Run()
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("ids = %v (ID order must survive refusals)", ids)
	}
	if g.Refused == 0 {
		t.Fatal("refusals not counted")
	}
	if g.Offered <= 3 {
		t.Fatal("offered count should include refused attempts")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	sched := sim.NewScheduler()
	n := 0
	NewPoisson(sched, sim.NewRNG(1), func(arq.Datagram) bool {
		n++
		return true
	}, 10*sim.Millisecond, 10, 20000)
	sched.Run()
	elapsed := sched.Now().Seconds()
	rate := float64(n) / elapsed
	if math.Abs(rate-100)/100 > 0.05 {
		t.Fatalf("rate = %v/s, want ~100/s", rate)
	}
}

func TestSaturatingKeepsSinkFull(t *testing.T) {
	sched := sim.NewScheduler()
	capacity := 4
	queue := 0
	accepted := 0
	NewSaturating(sched, func(arq.Datagram) bool {
		if queue >= capacity {
			return false
		}
		queue++
		accepted++
		return true
	}, sim.Millisecond, 10, 20)
	// Drain one slot per 5ms.
	var drain func()
	drain = func() {
		if queue > 0 {
			queue--
		}
		if accepted < 20 {
			sched.ScheduleAfter(5*sim.Millisecond, drain)
		}
	}
	sched.ScheduleAfter(5*sim.Millisecond, drain)
	sched.RunFor(sim.Second)
	if accepted != 20 {
		t.Fatalf("accepted %d, want 20", accepted)
	}
}

func TestOnOffBursts(t *testing.T) {
	sched := sim.NewScheduler()
	var at []sim.Time
	NewOnOff(sched, func(arq.Datagram) bool {
		at = append(at, sched.Now())
		return true
	}, sim.Millisecond, 5*sim.Millisecond, 20*sim.Millisecond, 10, 12)
	sched.Run()
	if len(at) != 12 {
		t.Fatalf("offered %d", len(at))
	}
	// The first burst covers [0, 5ms); the next resumes at 25ms.
	inGap := 0
	for _, tm := range at {
		if tm >= sim.Time(5*sim.Millisecond) && tm < sim.Time(25*sim.Millisecond) {
			inGap++
		}
	}
	if inGap != 0 {
		t.Fatalf("%d arrivals during the off phase", inGap)
	}
}

func TestStop(t *testing.T) {
	sched := sim.NewScheduler()
	n := 0
	g := NewConstantRate(sched, func(arq.Datagram) bool {
		n++
		return true
	}, sim.Millisecond, 10, -1) // unlimited
	sched.RunFor(10 * sim.Millisecond)
	g.Stop()
	sched.RunFor(100 * sim.Millisecond)
	if n == 0 || n > 12 {
		t.Fatalf("n = %d after stop", n)
	}
	if g.nextID != uint64(n) {
		t.Fatalf("next ID = %d, want %d", g.nextID, n)
	}
}

func TestBadParamsPanic(t *testing.T) {
	sched := sim.NewScheduler()
	sink := func(arq.Datagram) bool { return true }
	for name, fn := range map[string]func(){
		"constant": func() { NewConstantRate(sched, sink, 0, 1, 1) },
		"poisson":  func() { NewPoisson(sched, sim.NewRNG(1), sink, 0, 1, 1) },
		"saturate": func() { NewSaturating(sched, sink, 0, 1, 1) },
		"onoff":    func() { NewOnOff(sched, sink, 0, 1, 1, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
