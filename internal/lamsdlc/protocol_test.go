package lamsdlc

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/arq"
	"repro/internal/arq/arqtest"
	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/sim"
)

// scenario is the engine test kit's Scenario with this engine's halves typed.
type scenario = arqtest.Scenario[*Sender, *Receiver]

func newScenario(t *testing.T, cfg Config, o arqtest.Options) *scenario {
	t.Helper()
	return arqtest.New[*Sender, *Receiver](t, cfg, o)
}

// baseCfg is the standard test configuration: the kit's 4,000 km link
// (R ≈ 26 ms), checkpointed every 10 ms with depth 3.
func baseCfg() Config { return Defaults(arqtest.RoundTrip) }

func TestSenderBufferDrainsAndHoldingBounded(t *testing.T) {
	sc := newScenario(t, baseCfg(), arqtest.Options{Seed: 2})
	sc.EnqueueAll(200, 1024)
	sc.Sched.RunFor(5 * sim.Second)
	m := sc.Metrics()
	if m.HoldingTime.N() != 200 {
		t.Fatalf("released %d frames, want 200", m.HoldingTime.N())
	}
	// Error-free holding time is bounded by roughly R + 1.5*W_cp + proc.
	bound := float64(baseCfg().RoundTrip + 2*baseCfg().CheckpointInterval)
	if m.HoldingTime.Max() > bound {
		t.Fatalf("max holding %v exceeds error-free bound %v",
			sim.Duration(m.HoldingTime.Max()), sim.Duration(bound))
	}
}

func TestSingleCorruptionRecoversViaCheckpointNAK(t *testing.T) {
	pipe := arqtest.Pipe()
	pipe.IModel = arqtest.CorruptAt(3) // third I-frame dies
	sc := newScenario(t, baseCfg(), arqtest.Options{Pipe: pipe, Seed: 3})
	sc.EnqueueAll(10, 1024)
	sc.Sched.RunFor(2 * sim.Second)
	sc.AssertAllDelivered(10)
	m := sc.Metrics()
	if m.Retransmissions.Value() != 1 {
		t.Fatalf("retransmissions = %d, want exactly 1 (stale NAKs must be ignored)",
			m.Retransmissions.Value())
	}
	if d := sc.Duplicates(); d != 0 {
		t.Fatalf("%d duplicates", d)
	}
	// The retransmission carries a fresh sequence number: 10 firsts + 1
	// retransmission = 11 sequence numbers consumed.
	if got := sc.Sender.NextSeq(); got != 11 {
		t.Fatalf("NextSeq = %d, want 11", got)
	}
}

func TestCorruptedTrailingFrameRecoveredByResolvingTimeout(t *testing.T) {
	// The last frame of a burst is corrupted and no later frame reveals
	// the gap; the sender's resolving-period timeout must recover it.
	pipe := arqtest.Pipe()
	pipe.IModel = arqtest.CorruptAt(10) // last of 10
	sc := newScenario(t, baseCfg(), arqtest.Options{Pipe: pipe, Seed: 4})
	sc.EnqueueAll(10, 1024)
	sc.Sched.RunFor(3 * sim.Second)
	sc.AssertAllDelivered(10)
	if sc.Metrics().Retransmissions.Value() == 0 {
		t.Fatal("expected a resolving-timeout retransmission")
	}
	if sc.Sender.Unacked() != 0 {
		t.Fatal("trailing frame never released")
	}
}

func TestZeroLossProperty(t *testing.T) {
	// Property: for random error rates and seeds, every datagram is
	// delivered at least once while the link stays up.
	f := func(seed uint16, pfRaw, pcRaw uint8) bool {
		pf := float64(pfRaw%40) / 100 // 0..0.39
		pc := float64(pcRaw%20) / 100 // 0..0.19
		pipe := arqtest.Pipe()
		pipe.IModel = channel.FixedProb{P: pf}
		pipe.CModel = channel.FixedProb{P: pc}
		sc := newScenario(t, baseCfg(), arqtest.Options{Pipe: pipe, Seed: uint64(seed) + 1})
		const n = 60
		sc.EnqueueAll(n, 512)
		sc.Sched.RunFor(60 * sim.Second)
		for i := 0; i < n; i++ {
			if sc.Got[uint64(i)] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFirstCheckpointHeardIsNotCoveredByDefault(t *testing.T) {
	// The counterexample TestZeroLossProperty drew about one run in a hundred
	// (seed 0x9eb1, P_F 0.10, P_C 0.14), scripted: the session's first
	// C_depth+1 checkpoints are lost and they carried every copy of a NAK.
	// The first checkpoint the sender hears then has a clean list and a
	// watermark past the damaged frame; its serial, C_depth+2, is a jump from
	// zero like any other, so the frame must be retransmitted, not released.
	cfg := baseCfg()
	lost := arqtest.CorruptAt()
	for i := 1; i <= cfg.CumulationDepth+1; i++ {
		lost.At[i] = true
	}
	pipe := arqtest.Pipe()
	pipe.IModel = arqtest.CorruptAt(3)
	sc := newScenario(t, cfg, arqtest.Options{Pipe: pipe, Seed: 3,
		BtoA: &channel.PipeConfig{
			RateBps: pipe.RateBps,
			Delay:   pipe.Delay,
			CModel:  lost,
		}})
	sc.EnqueueAll(10, 1024)
	sc.Sched.RunFor(2 * sim.Second)
	sc.AssertAllDelivered(10)
	if sc.FailedAt != 0 {
		t.Fatalf("spurious link failure: %s", sc.FailMsg)
	}
}

func TestCheckpointLossCostsOneIntervalNotRoundTrip(t *testing.T) {
	// §3.3's key claim: a lost checkpoint adds ~W_cp to holding time, not
	// a round trip. Corrupt exactly one checkpoint and compare max holding
	// with the clean run.
	clean := newScenario(t, baseCfg(), arqtest.Options{Seed: 6})
	clean.EnqueueAll(50, 1024)
	clean.Sched.RunFor(3 * sim.Second)

	pipe := arqtest.Pipe()
	lossy := newScenario(t, baseCfg(), arqtest.Options{Pipe: pipe, Seed: 6,
		BtoA: &channel.PipeConfig{
			RateBps: pipe.RateBps,
			Delay:   pipe.Delay,
			CModel:  arqtest.CorruptAt(2),
		}})
	lossy.EnqueueAll(50, 1024)
	lossy.Sched.RunFor(3 * sim.Second)

	lossy.AssertAllDelivered(50)
	dmax := lossy.Metrics().HoldingTime.Max() - clean.Metrics().HoldingTime.Max()
	wcp := float64(baseCfg().CheckpointInterval)
	if dmax > 2*wcp {
		t.Fatalf("checkpoint loss cost %v of holding, want <= ~%v",
			sim.Duration(dmax), sim.Duration(2*wcp))
	}
	if lossy.Metrics().Retransmissions.Value() != 0 {
		t.Fatalf("checkpoint loss must not cause retransmissions, got %d",
			lossy.Metrics().Retransmissions.Value())
	}
}

func TestEnforcedRecoveryAfterCheckpointSilence(t *testing.T) {
	sc := newScenario(t, baseCfg(), arqtest.Options{Seed: 7})
	sc.EnqueueAll(20, 1024)
	sc.Sched.RunFor(200 * sim.Millisecond) // everything delivered, link idle

	// Kill the reverse path: checkpoints stop reaching the sender.
	sc.Link.BtoA.SetDown(true)
	sc.Sched.RunFor(baseCfg().CheckpointTimerTimeout() + 5*sim.Millisecond)
	if !sc.Sender.Recovering() {
		t.Fatal("sender should be in enforced recovery after checkpoint silence")
	}
	if sc.Sender.Failed() {
		t.Fatal("failed too early")
	}
	// New I-frames are suspended during recovery.
	sc.Sender.Enqueue(arq.Datagram{ID: 1000, Payload: make([]byte, 64)})
	sc.Sched.RunFor(5 * sim.Millisecond)
	if sc.Got[1000] != 0 {
		t.Fatal("new I-frame sent during enforced recovery")
	}

	// Restore the reverse path; the next checkpoint is not enforced (the
	// Request-NAK was lost with the link down), so the sender still can't
	// send new frames, but its retry/request must eventually elicit an
	// Enforced-NAK and resume.
	sc.Link.BtoA.SetDown(false)
	sc.Sched.RunFor(2 * sim.Second)
	if sc.Sender.Recovering() || sc.Sender.Failed() {
		t.Fatalf("recovery did not complete: recovering=%v failed=%v (%s)",
			sc.Sender.Recovering(), sc.Sender.Failed(), sc.FailMsg)
	}
	if sc.Got[1000] == 0 {
		t.Fatal("datagram queued during recovery never delivered")
	}
}

func TestLinkFailureDeclaredWithinBound(t *testing.T) {
	cfg := baseCfg()
	sc := newScenario(t, cfg, arqtest.Options{Seed: 8})
	sc.EnqueueAll(5, 512)
	sc.Sched.RunFor(200 * sim.Millisecond)
	killAt := sc.Sched.Now()
	sc.Link.Fail()
	sc.Sched.RunFor(10 * sim.Second)
	if sc.FailedAt == 0 {
		t.Fatal("link failure never declared")
	}
	// Detection bound: last checkpoint + the armed checkpoint timer
	// + failure timeout, plus one checkpoint interval of phase slack.
	bound := cfg.CheckpointTimerTimeout() + cfg.FailureTimeout() + cfg.CheckpointInterval
	if got := sc.FailedAt.Sub(killAt); got > bound {
		t.Fatalf("failure declared after %v, bound %v", got, bound)
	}
	if !sc.Sender.Failed() {
		t.Fatal("Failed() should report true")
	}
	// The text is formatted once per failure timeout and then shared.
	if want := fmt.Sprintf("no enforced-NAK within %v of request-NAK", cfg.FailureTimeout()); sc.FailMsg != want {
		t.Fatalf("failure reason %q, want %q", sc.FailMsg, want)
	}
	// Post-failure enqueues are refused.
	if sc.Sender.Enqueue(arq.Datagram{ID: 9999}) {
		t.Fatal("enqueue accepted after failure")
	}
}

func TestFailureRetainsUndeliveredDatagramsForRerouting(t *testing.T) {
	cfg := baseCfg()
	sc := newScenario(t, cfg, arqtest.Options{Seed: 9})
	// Kill the link instantly so nothing gets through.
	sc.Link.Fail()
	sc.EnqueueAll(7, 512)
	sc.Sched.RunFor(20 * sim.Second)
	if sc.FailedAt == 0 {
		t.Fatal("failure not declared")
	}
	und := sc.Sender.UnreleasedDatagrams()
	if len(und) != 7 {
		t.Fatalf("%d unreleased datagrams, want 7", len(und))
	}
}

func TestRequestRetriesExtendRecovery(t *testing.T) {
	cfg := baseCfg()
	cfg.RequestRetries = 2
	sc := newScenario(t, cfg, arqtest.Options{Seed: 10})
	sc.Sched.RunFor(100 * sim.Millisecond)
	killAt := sc.Sched.Now()
	sc.Link.Fail()
	sc.Sched.RunFor(20 * sim.Second)
	if sc.FailedAt == 0 {
		t.Fatal("failure not declared")
	}
	// 1 try + 2 retries, minus up to one checkpoint interval of phase slack
	// (the checkpoint timer was last re-armed by the final checkpoint
	// before the kill).
	minBound := cfg.CheckpointTimeout() - cfg.CheckpointInterval + 3*cfg.FailureTimeout()
	if got := sc.FailedAt.Sub(killAt); got < minBound {
		t.Fatalf("failed after %v, want >= %v with retries", got, minBound)
	}
}

func TestUnrecoverableFailureByLinkLifetime(t *testing.T) {
	cfg := baseCfg()
	cfg.LinkLifetime = 100 * sim.Millisecond
	sc := newScenario(t, cfg, arqtest.Options{Seed: 11})
	sc.Sched.RunFor(90 * sim.Millisecond)
	sc.Link.Fail()
	// The checkpoint timer fires ~45ms later, at which point the remaining
	// lifetime (< 0) cannot fit the expected response: fail immediately,
	// without waiting out the failure timer.
	sc.Sched.RunFor(cfg.CheckpointTimerTimeout() + 15*sim.Millisecond)
	if sc.FailedAt == 0 {
		t.Fatal("unrecoverable failure not declared promptly")
	}
}

func TestFlowControlThrottlesAndRecovers(t *testing.T) {
	cfg := baseCfg()
	cfg.RecvBufferCap = 16
	cfg.ProcTime = 500 * sim.Microsecond // receiver slower than the wire
	pipe := arqtest.Pipe()
	sc := newScenario(t, cfg, arqtest.Options{Pipe: pipe, Seed: 12})
	const n = 400
	sc.EnqueueAll(n, 1024)
	sc.Sched.RunFor(60 * sim.Second)
	sc.AssertAllDelivered(n)
	m := sc.Metrics()
	if m.RateChanges.Value() == 0 {
		t.Fatal("flow control never engaged")
	}
	if sc.Sender.RateFraction() > 1 {
		t.Fatal("rate fraction above 1")
	}
	// Receiver queue must have respected its cap.
	if occ := m.RecvBufOcc.Max(); occ > float64(cfg.RecvBufferCap) {
		t.Fatalf("receive buffer exceeded cap: %v", occ)
	}
}

func TestReceiverGapDetectionAndCumulativeNAKs(t *testing.T) {
	// Drive a receiver directly: deliver seqs 0,1,4 — the checkpoint must
	// NAK 2,3 and repeat them for C_depth checkpoints.
	sched := sim.NewScheduler()
	cfg := baseCfg()
	var sent []*frame.Frame
	w := &recordWire{frames: &sent}
	m := &arq.Metrics{}
	r := NewReceiver(sched, w, cfg, m, nil)
	r.Start()
	for _, seq := range []uint32{0, 1, 4} {
		r.HandleFrame(sched.Now(), frame.NewI(seq, uint64(seq), nil))
	}
	// Run through C_depth+1 checkpoint intervals.
	sched.RunFor(cfg.CheckpointInterval*sim.Duration(cfg.CumulationDepth+1) + sim.Millisecond)
	if len(sent) < cfg.CumulationDepth+1 {
		t.Fatalf("only %d checkpoints emitted", len(sent))
	}
	for i := 0; i < cfg.CumulationDepth; i++ {
		cp := sent[i]
		if cp.Ack != 5 {
			t.Fatalf("checkpoint %d ack = %d, want 5", i, cp.Ack)
		}
		if len(cp.NAKs) != 2 || cp.NAKs[0] != 2 || cp.NAKs[1] != 3 {
			t.Fatalf("checkpoint %d naks = %v, want [2 3]", i, cp.NAKs)
		}
	}
	// After C_depth checkpoints the report generation expires.
	if last := sent[cfg.CumulationDepth]; len(last.NAKs) != 0 {
		t.Fatalf("expired errors still reported: %v", last.NAKs)
	}
}

func TestReceiverAnswersRequestNAKImmediately(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := baseCfg()
	var sent []*frame.Frame
	m := &arq.Metrics{}
	r := NewReceiver(sched, &recordWire{frames: &sent}, cfg, m, nil)
	r.Start()
	r.HandleFrame(sched.Now(), frame.NewI(0, 0, nil))
	r.HandleFrame(sched.Now(), frame.NewI(3, 3, nil)) // gap: 1,2
	r.HandleFrame(sched.Now(), frame.NewRequestNAK(7))
	if len(sent) != 1 {
		t.Fatalf("%d frames sent, want immediate enforced NAK", len(sent))
	}
	e := sent[0]
	if !e.Enforced {
		t.Fatal("response not enforced")
	}
	if e.Seq != 7 {
		t.Fatalf("request serial echo = %d, want 7", e.Seq)
	}
	if len(e.NAKs) != 2 {
		t.Fatalf("enforced NAKs = %v", e.NAKs)
	}
	// Corrupted Request-NAK is ignored.
	req := frame.NewRequestNAK(8)
	req.Corrupted = true
	r.HandleFrame(sched.Now(), req)
	if len(sent) != 1 {
		t.Fatal("corrupted request answered")
	}
}

func TestReceiverIgnoresStaleAndCorrupted(t *testing.T) {
	sched := sim.NewScheduler()
	m := &arq.Metrics{}
	var sent []*frame.Frame
	r := NewReceiver(sched, &recordWire{frames: &sent}, baseCfg(), m, nil)
	r.Start()
	r.HandleFrame(sched.Now(), frame.NewI(0, 0, nil))
	r.HandleFrame(sched.Now(), frame.NewI(1, 1, nil))
	before := m.Delivered.Value()
	r.HandleFrame(sched.Now(), frame.NewI(0, 0, nil)) // stale duplicate
	corrupt := frame.NewI(2, 2, nil)
	corrupt.Corrupted = true
	r.HandleFrame(sched.Now(), corrupt)
	sched.RunFor(sim.Millisecond)
	if r.Expected() != 2 {
		t.Fatalf("expected = %d, want 2", r.Expected())
	}
	_ = before
	if m.Delivered.Value() != 2 {
		t.Fatalf("delivered = %d, want 2", m.Delivered.Value())
	}
}

// recordWire captures outbound frames for direct-drive tests.
type recordWire struct {
	frames *[]*frame.Frame
}

func (w *recordWire) Send(f *frame.Frame)              { *w.frames = append(*w.frames, f.Clone()) }
func (w *recordWire) TxTime(*frame.Frame) sim.Duration { return 0 }

func TestSenderIgnoresCorruptedCheckpoints(t *testing.T) {
	sched := sim.NewScheduler()
	var sent []*frame.Frame
	m := &arq.Metrics{}
	s := NewSender(sched, &recordWire{frames: &sent}, baseCfg(), m, nil)
	s.Start()
	s.Enqueue(arq.Datagram{ID: 1, Payload: make([]byte, 16)})
	sched.RunFor(sim.Millisecond)
	cp := frame.NewCheckpoint(1, 1, nil, false, false)
	cp.Corrupted = true
	s.HandleFrame(sched.Now(), cp)
	if s.Unacked() != 1 {
		t.Fatal("corrupted checkpoint affected sender state")
	}
	// A clean one releases.
	s.HandleFrame(sched.Now(), frame.NewCheckpoint(2, 1, nil, false, false))
	if s.Unacked() != 0 {
		t.Fatal("clean checkpoint did not release")
	}
}

func TestCoverageGapTriggersConservativeRetransmit(t *testing.T) {
	// A serial jump greater than C_depth means a whole report generation
	// may have been lost; watermark releases would risk silent loss, so
	// the sender must retransmit instead.
	sched := sim.NewScheduler()
	var sent []*frame.Frame
	m := &arq.Metrics{}
	cfg := baseCfg() // C_depth = 3
	s := NewSender(sched, &recordWire{frames: &sent}, cfg, m, nil)
	s.Start()
	s.Enqueue(arq.Datagram{ID: 1, Payload: make([]byte, 16)})
	sched.RunFor(sim.Millisecond)
	s.HandleFrame(sched.Now(), frame.NewCheckpoint(1, 0, nil, false, false))
	// Let more than a round trip pass so the frame is not considered
	// in-flight, then jump the serial by C_depth+1.
	sched.RunFor(cfg.RoundTrip + sim.Millisecond)
	s.HandleFrame(sched.Now(), frame.NewCheckpoint(5, 1, nil, false, false))
	if m.Retransmissions.Value() != 1 {
		t.Fatalf("retransmissions = %d, want 1 (conservative path)", m.Retransmissions.Value())
	}
	if s.Unacked() != 1 {
		t.Fatal("entry should remain held under a new seq")
	}
	// Continuous coverage with the new seq acked releases it.
	s.HandleFrame(sched.Now(), frame.NewCheckpoint(6, s.NextSeq(), nil, false, false))
	if s.Unacked() != 0 {
		t.Fatal("release after coverage restored failed")
	}
}

func TestSaturatedSenderBufferIsTransparentSized(t *testing.T) {
	// Under saturation with moderate errors the unacked population must
	// stabilize near B_LAMS = (1/t_f)*s*(R + (n_cp - 1/2) I_cp) rather
	// than grow: LAMS-DLC's transparent buffer property (§4).
	cfg := baseCfg()
	pipe := arqtest.Pipe()
	pipe.IModel = channel.FixedProb{P: 0.1}
	pipe.CModel = channel.FixedProb{P: 0.02}
	sc := newScenario(t, cfg, arqtest.Options{Pipe: pipe, Seed: 14})
	const n = 3000
	sc.EnqueueAll(n, 1024)
	sc.Sched.RunFor(60 * sim.Second)
	sc.AssertAllDelivered(n)

	tf := 1045 * 8.0 / 100e6 // wire bytes / rate, seconds
	sBar := 1 / (1 - 0.1)
	nCp := 1 / (1 - 0.02)
	r := baseCfg().RoundTrip.Seconds()
	icp := baseCfg().CheckpointInterval.Seconds()
	bLams := (1 / tf) * sBar * (r + (nCp-0.5)*icp)
	maxUnacked := sc.Metrics().SendBufOcc.Max()
	if maxUnacked > 3*bLams+float64(n) { // queue includes untransmitted backlog
		t.Fatalf("sender occupancy %v way beyond transparent size %v", maxUnacked, bLams)
	}
}
