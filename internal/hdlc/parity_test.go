package hdlc

import (
	"testing"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/sim"
)

// API-parity regression tests: the HDLC halves' share of the arq engine
// contract (failure callback via arq.NewPair's onFailure, end-of-pass
// reclaim of undelivered datagrams) behaves like lamsdlc's.

func parityPipe(im, cm channel.ErrorModel) channel.PipeConfig {
	return channel.PipeConfig{
		RateBps: 100e6,
		Delay:   channel.ConstantDelay(2 * sim.Millisecond),
		IModel:  im,
		CModel:  cm,
	}
}

// TestFailureCallbackOnN2Exhaustion kills the link mid-transfer and requires
// the sender to declare failure through onFailure once MaxTimeouts (N2)
// consecutive T1 expiries pass unanswered.
func TestFailureCallbackOnN2Exhaustion(t *testing.T) {
	sched := sim.NewScheduler()
	link := channel.NewLink(sched, parityPipe(nil, nil), sim.NewRNG(3))
	cfg := Defaults(4 * sim.Millisecond)
	cfg.MaxTimeouts = 3
	var failedAt sim.Time
	var reason string
	pair := newTestPair(sched, link, cfg, nil, func(now sim.Time, r string) {
		failedAt = now
		reason = r
	})
	pair.Start()
	for i := 0; i < 10; i++ {
		pair.Enqueue(arq.Datagram{ID: uint64(i), Payload: make([]byte, 256)})
	}
	// Kill the link while the window is still full (the first RR needs a
	// round trip), so every subsequent T1 expiry goes unanswered.
	sched.RunFor(1 * sim.Millisecond)
	link.Fail()
	sched.RunFor(10 * sim.Second)
	if failedAt == 0 {
		t.Fatal("sender never declared failure after the link died")
	}
	if !pair.Failed() {
		t.Fatal("Failed() false after declared failure")
	}
	if reason == "" {
		t.Fatal("failure callback got an empty reason")
	}
	if pair.Metrics().Failures.Value() != 1 {
		t.Fatalf("Failures counter = %d, want 1", pair.Metrics().Failures.Value())
	}
	// The declaration bound: (N2+1) full T1 periods from the last heard
	// supervisory frame, plus one period of phase slack.
	bound := sim.Duration(cfg.MaxTimeouts+2) * cfg.Timeout
	if d := failedAt.Sub(sim.Time(1 * sim.Millisecond)); d > bound {
		t.Fatalf("failure declared %v after the kill, want <= %v", d, bound)
	}
	// A failed sender refuses new work, like lamsdlc's.
	if pair.Enqueue(arq.Datagram{ID: 99}) {
		t.Fatal("failed sender accepted a datagram")
	}
}

// TestZeroMaxTimeoutsNeverDeclares pins the historical default: with
// MaxTimeouts zero the sender polls forever and never declares failure.
func TestZeroMaxTimeoutsNeverDeclares(t *testing.T) {
	sched := sim.NewScheduler()
	link := channel.NewLink(sched, parityPipe(nil, nil), sim.NewRNG(3))
	cfg := Defaults(4 * sim.Millisecond)
	called := false
	pair := newTestPair(sched, link, cfg, nil, func(sim.Time, string) { called = true })
	pair.Start()
	pair.Enqueue(arq.Datagram{ID: 1, Payload: make([]byte, 256)})
	sched.RunFor(5 * sim.Millisecond)
	link.Fail()
	sched.RunFor(30 * sim.Second)
	if called || pair.Failed() {
		t.Fatal("failure declared with MaxTimeouts = 0")
	}
}

// TestReclaimAtPassEnd stops a transfer mid-flight and requires every
// undelivered datagram to come back from Reclaim, oldest first, with no
// datagram both missing from the reclaim and undelivered — the no-loss
// half of the cross-pass carry-over contract.
func TestReclaimAtPassEnd(t *testing.T) {
	sched := sim.NewScheduler()
	// Drop every 3rd I-frame so the window holds unacknowledged entries.
	link := channel.NewLink(sched, parityPipe(&everyNth{n: 3}, nil), sim.NewRNG(7))
	cfg := Defaults(4 * sim.Millisecond)
	delivered := make(map[uint64]bool)
	pair := newTestPair(sched, link, cfg, func(_ sim.Time, dg arq.Datagram, _ uint32) {
		delivered[dg.ID] = true
	}, nil)
	pair.Start()
	const n = 200
	for i := 0; i < n; i++ {
		pair.Enqueue(arq.Datagram{ID: uint64(i), Payload: make([]byte, 512)})
	}
	// End the "pass" long before the transfer can finish.
	sched.RunFor(8 * sim.Millisecond)
	pair.Stop()
	reclaimed := pair.Reclaim()
	if len(reclaimed) == 0 {
		t.Fatal("nothing reclaimed from an unfinished transfer")
	}
	held := make(map[uint64]bool, len(reclaimed))
	last := int64(-1)
	for _, dg := range reclaimed {
		if int64(dg.ID) <= last {
			t.Fatalf("reclaim out of order: %d after %d", dg.ID, last)
		}
		last = int64(dg.ID)
		held[dg.ID] = true
	}
	for i := uint64(0); i < n; i++ {
		if !delivered[i] && !held[i] {
			t.Fatalf("datagram %d neither delivered nor reclaimed", i)
		}
	}
	// Stopped pair refuses new work and accepts no further deliveries.
	if pair.Enqueue(arq.Datagram{ID: n + 1}) {
		t.Fatal("stopped sender accepted a datagram")
	}
	if !pair.Failed() {
		t.Fatal("Failed() false after Stop")
	}
}

// everyNth corrupts every nth frame deterministically.
type everyNth struct{ n, count int }

func (e *everyNth) Corrupt(*sim.RNG, sim.Time, sim.Time, int) bool {
	e.count++
	return e.count%e.n == 0
}
