package hdlc

import (
	"testing"

	"repro/internal/arq"
	"repro/internal/frame"
	"repro/internal/sim"
)

// Regression tests for the corruption-adversary hardening (ISSUE 9).

// TestImplausibleRRRefused: before the handleRR guard, a forged RR with
// N(R) above nextSeq released the entire window unseen and advanced
// sendBase past nextSeq — after which every legitimate RR read as stale and
// the window could never release again. The sender must refuse it and keep
// working.
func TestImplausibleRRRefused(t *testing.T) {
	sc := newScenario(baseCfg(), basePipe(), 21)
	// Kill the return path so nothing releases on its own.
	sc.link.BtoA.SetHandler(func(sim.Time, *frame.Frame) {})
	sc.enqueueAll(20, 256)
	sc.sched.RunFor(100 * sim.Millisecond)
	out := sc.pair.Sender.Unacked()
	if out == 0 {
		t.Fatal("setup: nothing outstanding")
	}
	base := sc.pair.Sender.SendBase()

	ghost := frame.Frame{Kind: frame.KindRR, Ack: sc.pair.Sender.NextSeq() + 5000}
	sc.pair.Sender.HandleFrame(sc.sched.Now(), &ghost)
	if got := sc.pair.Sender.Unacked(); got < out {
		t.Fatalf("implausible RR released %d frames", out-got)
	}
	if sc.pair.Sender.SendBase() != base {
		t.Fatalf("implausible RR moved sendBase %d -> %d", base, sc.pair.Sender.SendBase())
	}

	// A genuine RR must still release: sendBase was not poisoned.
	genuine := frame.Frame{Kind: frame.KindRR, Ack: sc.pair.Sender.NextSeq()}
	sc.pair.Sender.HandleFrame(sc.sched.Now(), &genuine)
	if sc.pair.Sender.Unacked() != 0 {
		t.Fatal("genuine RR no longer releases: window wedged")
	}
}

// TestN2FiresUnderStarvation: with supervision enabled, a sender starved of
// every supervisory frame (total reorder/loss starvation of the return
// path) must declare failure after N2 consecutive T1 expiries — not poll
// forever. This is the HDLC parity check for LAMS-DLC's §3.2 failure
// declaration.
func TestN2FiresUnderStarvation(t *testing.T) {
	cfg := baseCfg()
	cfg.MaxTimeouts = 6
	sc := newScenario(cfg, basePipe(), 22)
	sc.link.BtoA.SetHandler(func(sim.Time, *frame.Frame) {})
	sc.enqueueAll(10, 256)
	// N2+1 expiries at one Timeout each, plus slack.
	sc.sched.RunFor(sim.Duration(cfg.MaxTimeouts+3) * cfg.Timeout)
	if !sc.pair.Failed() {
		t.Fatal("N2 supervision never fired under return-path starvation")
	}
	// Unreleased datagrams stay reclaimable for carry-over.
	if n := len(sc.pair.Reclaim()); n != 10 {
		t.Fatalf("reclaimed %d datagrams after failure, want 10", n)
	}
}

// TestScrambleConvergenceHDLC is the seed-pinned scramble sweep for HDLC's
// bounded corruption contract: after repeated CorruptState calls stop,
// fresh traffic must flow to completion with no failure declaration.
func TestScrambleConvergenceHDLC(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		cfg := baseCfg()
		cfg.MaxTimeouts = 12
		sc := newScenario(cfg, basePipe(), seed)
		rng := sim.NewRNG(seed * 6151)
		for i := 0; i < 30; i++ {
			at := sim.Time(int64(i) * int64(10*sim.Millisecond))
			sc.sched.Schedule(at, func() {
				cfg.CorruptState(sc.pair.Pair, rng)
				sc.pair.Sender.Enqueue(arq.Datagram{ID: 1 + uint64(i), Payload: make([]byte, 128)})
			})
		}
		sc.sched.RunFor(500 * sim.Millisecond)
		for i := 0; i < 40; i++ {
			sc.pair.Sender.Enqueue(arq.Datagram{ID: 1000 + uint64(i), Payload: make([]byte, 128)})
		}
		sc.sched.RunFor(5 * sim.Second)
		if sc.pair.Failed() {
			t.Fatalf("seed %d: scramble era led to failure declaration", seed)
		}
		for i := 0; i < 40; i++ {
			if sc.got[1000+uint64(i)] == 0 {
				t.Fatalf("seed %d: post-scramble datagram %d never delivered", seed, 1000+i)
			}
		}
	}
}
