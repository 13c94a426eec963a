package lamsdlc

import (
	"bytes"
	"testing"

	"repro/internal/arq"
	"repro/internal/arq/arqtest"
	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/sim"
)

// TestPayloadIntegrityEndToEnd verifies the bytes that come out are the
// bytes that went in, per datagram, across a lossy channel with
// retransmissions and renumbering.
func TestPayloadIntegrityEndToEnd(t *testing.T) {
	pipe := arqtest.Pipe()
	pipe.IModel = channel.FixedProb{P: 0.25}
	pipe.CModel = channel.FixedProb{P: 0.05}
	got := map[uint64][]byte{}
	sc := newScenario(t, baseCfg(), arqtest.Options{Pipe: pipe, Seed: 77,
		Deliver: func(_ sim.Time, dg arq.Datagram, _ uint32) {
			if _, dup := got[dg.ID]; !dup {
				got[dg.ID] = append([]byte(nil), dg.Payload...)
			}
		}})
	const n = 150
	want := make([][]byte, n)
	for i := 0; i < n; i++ {
		p := make([]byte, 64+i)
		for j := range p {
			p[j] = byte(i * (j + 3))
		}
		want[i] = p
		sc.Sender.Enqueue(arq.Datagram{ID: uint64(i), Payload: p})
	}
	sc.Sched.RunFor(30 * sim.Second)
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[uint64(i)], want[i]) {
			t.Fatalf("datagram %d payload mismatch", i)
		}
	}
}

// TestDeliveryDelayMeasured checks that the enqueue-to-delivery delay
// metric reflects propagation: it must be at least the one-way flight time
// and close to it on a clean link.
func TestDeliveryDelayMeasured(t *testing.T) {
	sc := newScenario(t, baseCfg(), arqtest.Options{Seed: 40})
	sc.EnqueueAll(50, 512)
	sc.Sched.RunFor(2 * sim.Second)
	mean := sim.Duration(sc.Metrics().DeliveryDelay.Mean())
	oneWay := 13 * sim.Millisecond
	if mean < oneWay {
		t.Fatalf("mean delay %v below flight time %v", mean, oneWay)
	}
	if mean > oneWay+5*sim.Millisecond {
		t.Fatalf("mean delay %v too large for a clean link", mean)
	}
}

// TestRateFloorRespected drives Stop-Go continuously and checks the rate
// never undershoots the §3.4 floor, 1/64.
func TestRateFloorRespected(t *testing.T) {
	sched := sim.NewScheduler()
	var sent []*frame.Frame
	cfg := baseCfg()
	m := &arq.Metrics{}
	s := NewSender(sched, &recordWire{frames: &sent}, cfg, m, nil)
	s.Start()
	for i := uint32(1); i <= 30; i++ {
		s.HandleFrame(sched.Now(), frame.NewCheckpoint(i, 0, nil, true, false))
		if s.RateFraction() < minRateFraction {
			t.Fatalf("rate %v under floor after %d stop checkpoints", s.RateFraction(), i)
		}
	}
	if s.RateFraction() != minRateFraction {
		t.Fatalf("rate %v, want pinned at floor %v", s.RateFraction(), minRateFraction)
	}
	// Recovery is multiplicative and capped at 1: 1.25^19 > 64, so 19
	// checkpoints with the bit clear bring the floor back to 1.
	for i := uint32(31); i < 31+19; i++ {
		s.HandleFrame(sched.Now(), frame.NewCheckpoint(i, 0, nil, false, false))
	}
	if s.RateFraction() != 1 {
		t.Fatalf("rate %v after sustained go, want 1", s.RateFraction())
	}
}

// TestStopGoHysteresis exercises the receiver's high/low watermarks: with a
// buffer cap of 8, Stop-Go sets at 6 queued frames and clears at 4.
func TestStopGoHysteresis(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := baseCfg()
	cfg.RecvBufferCap = 8
	cfg.ProcTime = sim.Second // park frames in the queue
	var sent []*frame.Frame
	m := &arq.Metrics{}
	r := NewReceiver(sched, &recordWire{frames: &sent}, cfg, m, nil)
	r.Start()
	for seq := uint32(0); seq < 6; seq++ {
		r.HandleFrame(sched.Now(), frame.NewI(seq, uint64(seq), nil))
	}
	// The frame in service still counts: occupancy is 6/8.
	if !r.StopGoAsserted() {
		t.Fatalf("stop-go not asserted at queue %d/8", r.QueueLen())
	}
	// Processing frees one frame a second: the bit holds at 5 and clears at 4.
	for _, want := range []struct {
		queue  int
		stopGo bool
	}{{5, true}, {4, false}} {
		sched.RunFor(sim.Second)
		if r.QueueLen() != want.queue || r.StopGoAsserted() != want.stopGo {
			t.Fatalf("queue %d/8: stop-go %v, want %v at %d", r.QueueLen(), r.StopGoAsserted(), want.stopGo, want.queue)
		}
	}
}

// TestErrorReportedExactlyCdepthTimes is the cumulative-NAK contract: a
// detected error appears in exactly C_depth consecutive checkpoints.
func TestErrorReportedExactlyCdepthTimes(t *testing.T) {
	for _, cd := range []int{1, 2, 3, 5} {
		sched := sim.NewScheduler()
		cfg := baseCfg()
		cfg.CumulationDepth = cd
		var sent []*frame.Frame
		r := NewReceiver(sched, &recordWire{frames: &sent}, cfg, &arq.Metrics{}, nil)
		r.Start()
		r.HandleFrame(sched.Now(), frame.NewI(0, 0, nil))
		r.HandleFrame(sched.Now(), frame.NewI(2, 2, nil)) // gap: seq 1
		sched.RunFor(cfg.CheckpointInterval * sim.Duration(cd+3))
		reports := 0
		for _, cp := range sent {
			for _, nak := range cp.NAKs {
				if nak == 1 {
					reports++
				}
			}
		}
		if reports != cd {
			t.Fatalf("C_depth=%d: error reported %d times", cd, reports)
		}
	}
}

// TestRecoveryBlocksNewFramesButAllowsRetransmission pins down the §3.2
// rule: during enforced recovery, plain checkpoints may trigger Check-Point
// Recovery (retransmissions) but no new I-frames flow.
func TestRecoveryBlocksNewFramesButAllowsRetransmission(t *testing.T) {
	sched := sim.NewScheduler()
	var sent []*frame.Frame
	cfg := baseCfg()
	m := &arq.Metrics{}
	s := NewSender(sched, &recordWire{frames: &sent}, cfg, m, nil)
	s.Start()
	s.Enqueue(arq.Datagram{ID: 1, Payload: make([]byte, 8)})
	sched.RunFor(sim.Millisecond) // first frame out (seq 0)
	// Silence until enforced recovery.
	sched.RunFor(cfg.ExpectedResponse() + cfg.CheckpointTimerTimeout() + sim.Millisecond)
	if !s.Recovering() {
		t.Fatal("not recovering")
	}
	txBefore := len(sent)
	// New datagram is accepted but must not be transmitted.
	s.Enqueue(arq.Datagram{ID: 2, Payload: make([]byte, 8)})
	sched.RunFor(10 * sim.Millisecond)
	// A plain (non-enforced) checkpoint NAKing seq 0 arrives.
	s.HandleFrame(sched.Now(), frame.NewCheckpoint(1, 0, []uint32{0}, false, false))
	sched.RunFor(10 * sim.Millisecond)
	var retx, newTx int
	for _, f := range sent[txBefore:] {
		if f.Kind != frame.KindI {
			continue
		}
		if f.DatagramID == 1 {
			retx++
		} else {
			newTx++
		}
	}
	if retx != 1 {
		t.Fatalf("checkpoint recovery during enforced recovery: retx = %d, want 1", retx)
	}
	if newTx != 0 {
		t.Fatalf("%d new I-frames sent during enforced recovery", newTx)
	}
	if m.Retransmissions.Value() != 1 {
		t.Fatalf("retransmissions metric = %d", m.Retransmissions.Value())
	}
	// The enforced response resumes normal service.
	s.HandleFrame(sched.Now(), frame.NewCheckpoint(2, 0, nil, false, true))
	sched.RunFor(10 * sim.Millisecond)
	found := false
	for _, f := range sent {
		if f.Kind == frame.KindI && f.DatagramID == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("queued datagram not sent after recovery completed")
	}
}

// TestOverflowDiscardIsNAKed confirms §3.4: "the receiver discards the
// overflowing I-frames while sending control with the Stop-Go-bit set" and
// the discard is reported like an error so the sender retransmits.
func TestOverflowDiscardIsNAKed(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := baseCfg()
	cfg.RecvBufferCap = 2
	cfg.ProcTime = sim.Second // nothing drains
	var sent []*frame.Frame
	m := &arq.Metrics{}
	r := NewReceiver(sched, &recordWire{frames: &sent}, cfg, m, nil)
	r.Start()
	for seq := uint32(0); seq < 4; seq++ {
		r.HandleFrame(sched.Now(), frame.NewI(seq, uint64(seq), nil))
	}
	if m.RecvDropped.Value() == 0 {
		t.Fatal("no overflow discard")
	}
	sched.RunFor(cfg.CheckpointInterval + sim.Millisecond)
	last := sent[len(sent)-1]
	if last.Kind != frame.KindCheckpoint {
		t.Fatal("no checkpoint emitted")
	}
	if len(last.NAKs) == 0 {
		t.Fatal("overflow discard not NAKed")
	}
	if !last.StopGo {
		t.Fatal("overflow checkpoint without Stop-Go")
	}
}

// TestSenderSeqMonotone is the numbering discipline: every transmitted
// I-frame, first or retransmitted, carries a strictly increasing N(S).
func TestSenderSeqMonotone(t *testing.T) {
	pipe := arqtest.Pipe()
	pipe.IModel = channel.FixedProb{P: 0.3}
	pipe.CModel = channel.FixedProb{P: 0.1}
	sched := sim.NewScheduler()
	link := channel.NewLink(sched, pipe, sim.NewRNG(88))
	var seqs []uint32
	link.AtoB.SetHandler(func(_ sim.Time, f *frame.Frame) {
		if !f.Corrupted && f.Kind == frame.KindI {
			seqs = append(seqs, f.Seq)
		}
	})
	m := &arq.Metrics{}
	s := NewSender(sched, link.AtoB, baseCfg(), m, nil)
	// Feed checkpoints from a scripted receiver to exercise renumbering.
	r := NewReceiver(sched, link.BtoA, baseCfg(), m, nil)
	link.BtoA.SetHandler(s.HandleFrame)
	link.AtoB.SetHandler(func(now sim.Time, f *frame.Frame) {
		if !f.Corrupted && f.Kind == frame.KindI {
			seqs = append(seqs, f.Seq)
		}
		r.HandleFrame(now, f)
	})
	s.Start()
	r.Start()
	for i := 0; i < 100; i++ {
		s.Enqueue(arq.Datagram{ID: uint64(i), Payload: make([]byte, 256)})
	}
	sched.RunFor(20 * sim.Second)
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("sequence numbers not strictly increasing at %d: %d then %d",
				i, seqs[i-1], seqs[i])
		}
	}
	if m.Retransmissions.Value() == 0 {
		t.Fatal("expected renumbered retransmissions at 30% frame loss")
	}
}

// TestDedupWindowZeroDuplication exercises the "more recent version" of
// §3.2: with DedupWindow enabled the DLC itself guarantees zero duplication
// even across coverage breaks that force conservative retransmission.
func TestDedupWindowZeroDuplication(t *testing.T) {
	cfg := baseCfg()
	cfg.DedupWindow = cfg.DedupHorizon()
	// At P_C = 0.5 genuinely silent failure-timeout windows occur; a
	// generous retry budget keeps the link up so the test isolates the
	// duplicate path.
	cfg.RequestRetries = 10
	// Corrupt long trains of checkpoints to force coverage gaps (the
	// duplicate-generating path).
	pipe := arqtest.Pipe()
	pipe.IModel = channel.FixedProb{P: 0.1}
	pipe.CModel = channel.FixedProb{P: 0.5} // brutal control channel
	sc := newScenario(t, cfg, arqtest.Options{Pipe: pipe, Seed: 60})
	// Trickle traffic so frames are in flight whenever a coverage break
	// (≥ C_depth consecutive checkpoint losses) happens; a burst transfer
	// would complete before the first break.
	const n = 3000
	id := uint64(0)
	var feed func()
	feed = func() {
		if id < n {
			sc.Sender.Enqueue(arq.Datagram{ID: id, Payload: make([]byte, 512)})
			id++
			sc.Sched.ScheduleAfter(3*sim.Millisecond, feed)
		}
	}
	sc.Sched.ScheduleAfter(0, feed)
	sc.Sched.RunFor(120 * sim.Second)
	sc.AssertAllDelivered(n)
	if d := sc.Duplicates(); d != 0 {
		t.Fatalf("%d duplicates reached the network layer with dedup enabled", d)
	}
	if sc.Metrics().DupSuppressed.Value() == 0 {
		t.Fatal("expected the dedup window to actually suppress something at P_C=0.5")
	}
}

// TestDedupMemoryBounded: the dedup map must not grow with the transfer
// size, only with deliveries inside the window.
func TestDedupMemoryBounded(t *testing.T) {
	cfg := baseCfg()
	cfg.DedupWindow = 50 * sim.Millisecond
	sc := newScenario(t, cfg, arqtest.Options{Seed: 61})
	const n = 2000
	sc.EnqueueAll(n, 512)
	sc.Sched.RunFor(10 * sim.Second)
	sc.AssertAllDelivered(n)
	// 100 Mbps / 533-byte frames ≈ 23k frames/s; a 50ms window holds
	// ~1170; pruning is amortized per window so allow 3x.
	if got := sc.Receiver.DedupEntries(); got > 3500 {
		t.Fatalf("dedup memory %d entries, want bounded by the window", got)
	}
}

// TestDedupOffByDefault keeps the baseline behavior unchanged.
func TestDedupOffByDefault(t *testing.T) {
	sc := newScenario(t, baseCfg(), arqtest.Options{Seed: 62})
	sc.EnqueueAll(10, 64)
	sc.Sched.RunFor(sim.Second)
	if sc.Receiver.DedupEntries() != 0 {
		t.Fatal("dedup memory allocated without DedupWindow")
	}
}
