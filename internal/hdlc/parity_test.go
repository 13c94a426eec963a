package hdlc

import (
	"testing"

	"repro/internal/arq"
	"repro/internal/arq/arqtest"
	"repro/internal/frame"
	"repro/internal/sim"
)

// API-parity regression tests: the HDLC halves' share of the arq engine
// contract (failure callback via arq.NewPair's onFailure, end-of-pass
// reclaim, teardown) beyond what the contract in arqtest checks for every
// engine.

// TestFailureCallbackOnN2Exhaustion kills the link mid-transfer and requires
// the sender to declare failure through onFailure once MaxTimeouts (N2)
// consecutive T1 expiries pass unanswered.
func TestFailureCallbackOnN2Exhaustion(t *testing.T) {
	cfg := Defaults(arqtest.RoundTrip)
	cfg.MaxTimeouts = 3
	sc := newScenario(t, cfg, arqtest.Options{Seed: 3})
	sc.EnqueueAll(10, 256)
	// Kill the link while the window is still full (the first RR needs a
	// round trip), so every subsequent T1 expiry goes unanswered.
	sc.Sched.RunFor(1 * sim.Millisecond)
	sc.Link.Fail()
	sc.Sched.RunFor(10 * sim.Second)
	if sc.FailedAt == 0 {
		t.Fatal("sender never declared failure after the link died")
	}
	if !sc.Failed() {
		t.Fatal("Failed() false after declared failure")
	}
	if sc.FailMsg == "" {
		t.Fatal("failure callback got an empty reason")
	}
	if sc.Metrics().Failures.Value() != 1 {
		t.Fatalf("Failures counter = %d, want 1", sc.Metrics().Failures.Value())
	}
	// The declaration bound: (N2+1) full T1 periods from the last heard
	// supervisory frame, plus one period of phase slack.
	bound := sim.Duration(cfg.MaxTimeouts+2) * cfg.Timeout
	if d := sc.FailedAt.Sub(sim.Time(1 * sim.Millisecond)); d > bound {
		t.Fatalf("failure declared %v after the kill, want <= %v", d, bound)
	}
	// A failed sender refuses new work, like lamsdlc's.
	if sc.Enqueue(arq.Datagram{ID: 99}) {
		t.Fatal("failed sender accepted a datagram")
	}
}

// TestZeroMaxTimeoutsNeverDeclares pins the historical default: with
// MaxTimeouts zero the sender polls forever and never declares failure.
func TestZeroMaxTimeoutsNeverDeclares(t *testing.T) {
	sc := newScenario(t, Defaults(arqtest.RoundTrip), arqtest.Options{Seed: 3})
	sc.EnqueueAll(1, 256)
	sc.Sched.RunFor(5 * sim.Millisecond)
	sc.Link.Fail()
	sc.Sched.RunFor(30 * sim.Second)
	if sc.FailedAt != 0 || sc.Failed() {
		t.Fatal("failure declared with MaxTimeouts = 0")
	}
}

// TestReclaimAtPassEnd stops a transfer after retransmissions and releases
// and requires every undelivered datagram back from Reclaim, in submission
// order: HDLC never renumbers, so the order the contract's stop row checks
// before any acknowledgement survives recovery too.
func TestReclaimAtPassEnd(t *testing.T) {
	pipe := arqtest.Pipe()
	pipe.IModel = arqtest.CorruptEvery(3) // the window always holds gaps
	sc := newScenario(t, Defaults(arqtest.RoundTrip), arqtest.Options{Pipe: pipe, Seed: 7})
	const n = 200
	sc.EnqueueAll(n, 512)
	sc.Sched.RunFor(3 * arqtest.RoundTrip)
	sc.Stop()
	if sc.Metrics().Retransmissions.Value() == 0 || sc.Metrics().HoldingTime.N() == 0 {
		t.Fatal("stopped before any retransmission and release")
	}
	held := sc.Reclaimed(n)
	for i := 1; i < len(held); i++ {
		if held[i].ID <= held[i-1].ID {
			t.Fatalf("reclaim out of order: %d after %d", held[i].ID, held[i-1].ID)
		}
	}
}

// TestRecycleReturnsHeldFrames: a selective-repeat receiver torn down with
// frames in its out-of-order buffer Puts them back to their free list, and
// the next receiver on the run memory inherits its two maps, emptied.
func TestRecycleReturnsHeldFrames(t *testing.T) {
	sched := sim.NewScheduler()
	r := NewReceiver(sched, arqtest.NullWire{}, baseCfg(), &arq.Metrics{}, nil)
	var frames frame.List // the run's free list, as Pipe.Send uses it
	held := map[*frame.Frame]bool{}
	for seq := uint32(1); seq <= 3; seq++ { // seq 0 is missing: all three are held
		f := frames.Get(false)
		frames.Adopt(f)
		f.Kind, f.Seq = frame.KindHDLCI, seq
		held[f] = true
		r.HandleFrame(sched.Now(), f)
	}
	if r.Held() != 3 {
		t.Fatalf("receiver holds %d frames, want 3", r.Held())
	}
	maps := r.recvMaps
	r.Recycle()
	for range held {
		if f := frames.Get(false); !held[f] {
			t.Fatal("a held frame did not go back to its free list")
		}
	}
	next := NewReceiver(sched, arqtest.NullWire{}, baseCfg(), &arq.Metrics{}, nil)
	if next.recvMaps != maps || len(next.held) != 0 || len(next.srejSent) != 0 {
		t.Fatal("the next receiver did not inherit the maps, emptied")
	}
}
