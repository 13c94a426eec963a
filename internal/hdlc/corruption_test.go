package hdlc

import (
	"testing"

	"repro/internal/arq/arqtest"
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
	sc := newScenario(t, baseCfg(), arqtest.Options{Seed: 21})
	// Kill the return path so nothing releases on its own.
	sc.Link.BtoA.SetHandler(func(sim.Time, *frame.Frame) {})
	sc.EnqueueAll(20, 256)
	sc.Sched.RunFor(100 * sim.Millisecond)
	out := sc.Sender.Unacked()
	if out == 0 {
		t.Fatal("setup: nothing outstanding")
	}
	base := sc.Sender.sendBase

	ghost := frame.Frame{Kind: frame.KindRR, Ack: sc.Sender.NextSeq() + 5000}
	sc.Sender.HandleFrame(sc.Sched.Now(), &ghost)
	if got := sc.Sender.Unacked(); got < out {
		t.Fatalf("implausible RR released %d frames", out-got)
	}
	if sc.Sender.sendBase != base {
		t.Fatalf("implausible RR moved sendBase %d -> %d", base, sc.Sender.sendBase)
	}

	// A genuine RR must still release: sendBase was not poisoned.
	genuine := frame.Frame{Kind: frame.KindRR, Ack: sc.Sender.NextSeq()}
	sc.Sender.HandleFrame(sc.Sched.Now(), &genuine)
	if sc.Sender.Unacked() != 0 {
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
	sc := newScenario(t, cfg, arqtest.Options{Seed: 22})
	sc.Link.BtoA.SetHandler(func(sim.Time, *frame.Frame) {})
	sc.EnqueueAll(10, 256)
	// N2+1 expiries at one Timeout each, plus slack.
	sc.Sched.RunFor(sim.Duration(cfg.MaxTimeouts+3) * cfg.Timeout)
	if !sc.Sender.Closed() {
		t.Fatal("N2 supervision never fired under return-path starvation")
	}
	// Unreleased datagrams stay reclaimable for carry-over.
	if n := len(sc.Reclaim()); n != 10 {
		t.Fatalf("reclaimed %d datagrams after failure, want 10", n)
	}
}
