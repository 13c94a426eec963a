package session

import (
	"testing"

	"repro/internal/hdlc"
	"repro/internal/sim"
)

// hdlcCfg binds the selective-repeat HDLC baseline to the Manager: the
// session layer must deliver exactly-once across pass boundaries without
// knowing which engine carries the traffic.
func hdlcCfg() Config {
	p := hdlc.Defaults(13 * sim.Millisecond)
	return Config{Engine: p, Retarget: 10 * sim.Millisecond}
}

// TestHandoverOverHDLCSelectiveRepeat reruns the carry-over contract with
// the SR-HDLC baseline in place of LAMS-DLC: a pass too short to finish the
// transfer, a lossy channel, and the remainder crossing the gap — every
// datagram must still reach the application exactly once, in order.
func TestHandoverOverHDLCSelectiveRepeat(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(11)
	passes := []Pass{
		{Start: 0, End: sim.Time(60 * sim.Millisecond)}, // ~1 RTT of usable time
		{Start: sim.Time(500 * sim.Millisecond), End: sim.Time(8 * sim.Second)},
	}
	m := New(sched, hdlcCfg(), passes, factory(sched, rng, 0.1))
	var got collected
	m.OnDeliver = got.hook()
	const n = 400
	for i := 0; i < n; i++ {
		m.Send(make([]byte, 512))
	}
	sched.RunUntil(sim.Time(400 * sim.Millisecond))
	if m.Stats.CarriedOver.Value() == 0 {
		t.Fatal("nothing carried over: the first pass was long enough to finish")
	}
	sched.RunFor(8 * sim.Second)
	got.exactlyOnceInOrder(t, n)
	if m.Stats.Passes.Value() != 2 {
		t.Fatalf("passes = %d, want 2", m.Stats.Passes.Value())
	}
}
