package lamsdlc

import (
	"testing"

	"repro/internal/arq"
	"repro/internal/arq/arqtest"
	"repro/internal/frame"
	"repro/internal/sim"
)

// Regression tests for the recovery-path bugs the corruption adversary
// surfaced (ISSUE 9). Each pins the specific failure mode with the seed or
// the direct frame sequence that reproduced it.

// TestImplausibleSeqJumpDiscarded: before MaxSeqJump, one forged I-frame
// with a far-future sequence number appended millions of phantom NAKs and
// advanced the watermark past all genuine traffic, permanently wedging the
// link (every real frame then classified as a below-watermark duplicate).
func TestImplausibleSeqJumpDiscarded(t *testing.T) {
	sc := newScenario(t, baseCfg(), arqtest.Options{Seed: 11})
	sc.EnqueueAll(20, 256)
	sc.Sched.RunFor(200 * sim.Millisecond)
	before := sc.Receiver.expected

	ghost := frame.Get()
	ghost.Kind = frame.KindI
	ghost.Seq = before + MaxSeqJump + 1000
	ghost.DatagramID = 1 << 62
	ghost.Payload = make([]byte, 64)
	sc.Link.AtoB.Send(ghost)
	frame.Put(ghost)
	sc.Sched.RunFor(100 * sim.Millisecond)

	if got := sc.Receiver.expected; got != before+20 && got < before {
		t.Fatalf("watermark moved implausibly: %d -> %d", before, got)
	}
	if sc.Got[1<<62] != 0 {
		t.Fatal("forged datagram was delivered")
	}
	// The link must still work: fresh traffic flows to completion.
	for i := 0; i < 20; i++ {
		sc.Sender.Enqueue(arq.Datagram{ID: 100 + uint64(i), Payload: make([]byte, 256)})
	}
	sc.Sched.RunFor(2 * sim.Second)
	for i := 0; i < 20; i++ {
		if sc.Got[100+uint64(i)] == 0 {
			t.Fatalf("post-ghost datagram %d never delivered: link wedged", 100+i)
		}
	}
}

// TestFutureDedupRecordExpires: a future-dated dedup record (writable only
// by state corruption) made now.Sub(at) negative, which the expiry loop
// read as "inside the window" — the FIFO wedged behind it and the seen map
// grew without bound, breaking §3.2's memory-bound argument.
func TestFutureDedupRecordExpires(t *testing.T) {
	cfg := baseCfg()
	cfg.DedupWindow = cfg.DedupHorizon()
	sc := newScenario(t, cfg, arqtest.Options{Seed: 12})
	sc.EnqueueAll(10, 128)
	sc.Sched.RunFor(200 * sim.Millisecond)

	// Corrupt: wedge the FIFO head with a far-future record.
	r := sc.Receiver
	now := sc.Sched.Now()
	future := now.Add(1000 * cfg.DedupWindow)
	r.seen[1<<62] = future
	r.dedupAge.PushBack(dedupRec{id: 1 << 62, at: future})

	// Drive steady traffic across four windows so incremental expiry (it
	// runs on each delivery) has continuous opportunities to age records
	// out past the wedge.
	for i := 0; i < 200; i++ {
		at := now.Add(sim.Duration(int64(i) * int64(5*sim.Millisecond)))
		sc.Sched.Schedule(at, func() {
			sc.Sender.Enqueue(arq.Datagram{ID: 1000 + uint64(i), Payload: make([]byte, 128)})
		})
	}
	sc.Sched.RunFor(4 * cfg.DedupWindow)

	// Population must be bounded by one window's deliveries (~49 at 5 ms
	// spacing with a ~244 ms window), not the whole history: with the bug,
	// every record behind the wedge persists (200+).
	if n := len(r.seen); n > 100 {
		t.Fatalf("dedup memory holds %d entries after 4 windows: expiry wedged", n)
	}
}

// TestImplausibleWatermarkNoRelease: a forged checkpoint acknowledging
// sequence numbers never sent released every outstanding entry, silently
// dropping undelivered datagrams. The sender must refuse the watermark but
// keep the checkpoint's liveness and recovery signals.
func TestImplausibleWatermarkNoRelease(t *testing.T) {
	sc := newScenario(t, baseCfg(), arqtest.Options{Seed: 13})
	// Hold acks back: kill the return path so nothing releases on its own.
	sc.Link.BtoA.SetHandler(func(sim.Time, *frame.Frame) {})
	sc.EnqueueAll(30, 256)
	sc.Sched.RunFor(100 * sim.Millisecond)
	out := sc.Outstanding()
	if out == 0 {
		t.Fatal("setup: nothing outstanding")
	}

	ghost := frame.Get()
	ghost.Kind = frame.KindCheckpoint
	ghost.Serial = 1
	ghost.Ack = sc.Sender.NextSeq() + 5000
	sc.Sender.HandleFrame(sc.Sched.Now(), ghost)
	frame.Put(ghost)

	if got := sc.Outstanding(); got < out {
		t.Fatalf("implausible watermark released %d entries", out-got)
	}
}

// TestRecoveryReentryWithFutureClock: a corrupted future reqSentAt made
// the overdue-response test permanently false, so a sender in Enforced
// Recovery never re-solicited on heard checkpoints and burned its retry
// budget instead. The monotone-clock repair clamps it.
func TestRecoveryReentryWithFutureClock(t *testing.T) {
	sc := newScenario(t, baseCfg(), arqtest.Options{Seed: 14})
	sc.EnqueueAll(5, 128)
	sc.Sched.RunFor(100 * sim.Millisecond)
	s := sc.Sender
	now := sc.Sched.Now()

	// Force recovery with a poisoned future solicitation clock.
	s.recovering = true
	s.reqSentAt = now.Add(1000 * sim.Second)
	reqBefore := s.reqSerial

	// A plain (non-enforced) checkpoint arrives: with the clamp the
	// response is overdue relative to the repaired clock only after
	// ExpectedResponse, so advance past it and deliver another.
	cp := frame.Frame{Kind: frame.KindCheckpoint, Serial: 100, Ack: 0}
	s.HandleFrame(now, &cp)
	if s.reqSentAt > now {
		t.Fatalf("reqSentAt still in the future after repair: %v > %v", s.reqSentAt, now)
	}
	sc.Sched.RunFor(2 * sc.Sender.cfg.ExpectedResponse())
	cp2 := frame.Frame{Kind: frame.KindCheckpoint, Serial: 101, Ack: 0}
	s.HandleFrame(sc.Sched.Now(), &cp2)
	if s.reqSerial == reqBefore {
		t.Fatal("sender never re-solicited: recovery re-entry still wedged")
	}
}

// TestScrambleConvergence is the seed-pinned scramble sweep for LAMS-DLC's
// bounded corruption contract: after repeated CorruptState calls stop,
// fresh traffic must flow to completion with no failure declaration.
func TestScrambleConvergence(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		cfg := baseCfg()
		cfg.DedupWindow = cfg.DedupHorizon()
		sc := newScenario(t, cfg, arqtest.Options{Pipe: arqtest.Pipe(), Seed: seed})
		rng := sim.NewRNG(seed * 7919)
		for i := 0; i < 30; i++ {
			at := sim.Time(int64(i) * int64(10*sim.Millisecond))
			sc.Sched.Schedule(at, func() {
				cfg.CorruptState(sc.Pair, rng)
				sc.Sender.Enqueue(arq.Datagram{ID: uint64(i + 1), Payload: make([]byte, 128)})
			})
		}
		sc.Sched.RunFor(500 * sim.Millisecond)
		for i := 0; i < 40; i++ {
			sc.Sender.Enqueue(arq.Datagram{ID: 1000 + uint64(i), Payload: make([]byte, 128)})
		}
		sc.Sched.RunFor(5 * sim.Second)
		if sc.Sender.Closed() {
			t.Fatalf("seed %d: scramble era led to failure declaration: %s", seed, sc.FailMsg)
		}
		for i := 0; i < 40; i++ {
			if sc.Got[1000+uint64(i)] == 0 {
				t.Fatalf("seed %d: post-scramble datagram %d never delivered", seed, 1000+i)
			}
		}
	}
}
