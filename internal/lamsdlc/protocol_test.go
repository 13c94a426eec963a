package lamsdlc

import (
	"testing"
	"testing/quick"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/sim"
)

// scenario bundles a wired-up protocol run for tests.
type scenario struct {
	sched    *sim.Scheduler
	pair     *testPair
	link     *channel.Link
	got      map[uint64]int // datagram ID -> delivery count
	order    []uint64
	failedAt sim.Time
	failMsg  string
}

// testPair is an arq.Pair with its halves typed, for tests that reach into
// one engine's state.
type testPair struct {
	*arq.Pair
	Sender   *Sender
	Receiver *Receiver
}

// newTestPair builds a pair on one scheduler through arq.NewPair, the one
// pair constructor.
func newTestPair(sched *sim.Scheduler, link *channel.Link, cfg Config, deliver arq.DeliverFunc, onFailure arq.FailureFunc) *testPair {
	p := arq.NewPair(sched, sched, link, cfg, deliver, onFailure)
	return &testPair{Pair: p, Sender: p.Sender.(*Sender), Receiver: p.Receiver.(*Receiver)}
}

type scenarioOpts struct {
	cfg      Config
	pipe     channel.PipeConfig
	seed     uint64
	asymBtoA *channel.PipeConfig
}

func newScenario(t *testing.T, opts scenarioOpts) *scenario {
	t.Helper()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(opts.seed)
	var link *channel.Link
	if opts.asymBtoA != nil {
		link = channel.NewAsymmetricLink(sched, opts.pipe, *opts.asymBtoA, rng)
	} else {
		link = channel.NewLink(sched, opts.pipe, rng)
	}
	sc := &scenario{sched: sched, link: link, got: make(map[uint64]int)}
	sc.pair = newTestPair(sched, link, opts.cfg,
		func(now sim.Time, dg arq.Datagram, seq uint32) {
			sc.got[dg.ID]++
			sc.order = append(sc.order, dg.ID)
		},
		func(now sim.Time, reason string) {
			sc.failedAt = now
			sc.failMsg = reason
		})
	sc.pair.Start()
	return sc
}

// enqueueAll submits n datagrams of the given payload size immediately.
func (sc *scenario) enqueueAll(n, size int) {
	for i := 0; i < n; i++ {
		if !sc.pair.Sender.Enqueue(arq.Datagram{ID: uint64(i), Payload: make([]byte, size)}) {
			panic("enqueue rejected")
		}
	}
}

// baseCfg is the standard test configuration: a 4000 km link (R ~ 27ms)
// checkpointed every 10ms with depth 3.
func baseCfg() Config {
	cfg := Defaults(26 * sim.Millisecond)
	cfg.CheckpointInterval = 10 * sim.Millisecond
	cfg.CumulationDepth = 3
	cfg.ProcTime = 10 * sim.Microsecond
	return cfg
}

func basePipe() channel.PipeConfig {
	return channel.PipeConfig{
		RateBps: 100e6,
		Delay:   channel.ConstantDelay(13 * sim.Millisecond),
	}
}

func (sc *scenario) runFor(d sim.Duration) { sc.sched.RunFor(d) }

func (sc *scenario) assertAllDelivered(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if sc.got[uint64(i)] == 0 {
			t.Fatalf("datagram %d lost (delivered %d/%d)", i, len(sc.got), n)
		}
	}
}

func (sc *scenario) duplicates() int {
	d := 0
	for _, c := range sc.got {
		if c > 1 {
			d += c - 1
		}
	}
	return d
}

func TestPerfectChannelDeliversAllInOrderNoRetx(t *testing.T) {
	sc := newScenario(t, scenarioOpts{cfg: baseCfg(), pipe: basePipe(), seed: 1})
	const n = 500
	sc.enqueueAll(n, 1024)
	sc.runFor(5 * sim.Second)
	sc.assertAllDelivered(t, n)
	if d := sc.duplicates(); d != 0 {
		t.Fatalf("%d duplicates on a perfect channel", d)
	}
	m := sc.pair.Metrics()
	if m.Retransmissions.Value() != 0 {
		t.Fatalf("%d retransmissions on a perfect channel", m.Retransmissions.Value())
	}
	// Out-of-sequence service: on a perfect channel delivery order is
	// nevertheless FIFO.
	for i, id := range sc.order {
		if id != uint64(i) {
			t.Fatalf("order[%d] = %d", i, id)
		}
	}
	if sc.pair.Sender.Unacked() != 0 {
		t.Fatalf("%d frames never released", sc.pair.Sender.Unacked())
	}
}

func TestSenderBufferDrainsAndHoldingBounded(t *testing.T) {
	sc := newScenario(t, scenarioOpts{cfg: baseCfg(), pipe: basePipe(), seed: 2})
	sc.enqueueAll(200, 1024)
	sc.runFor(5 * sim.Second)
	m := sc.pair.Metrics()
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

// corruptEveryNth corrupts I-frame transmissions count ≡ 0 (mod n), 1-based.
type corruptNth struct {
	targets map[int]bool
	count   int
}

func (c *corruptNth) Corrupt(_ *sim.RNG, _, _ sim.Time, _ int) bool {
	c.count++
	return c.targets[c.count]
}

func TestSingleCorruptionRecoversViaCheckpointNAK(t *testing.T) {
	pipe := basePipe()
	pipe.IModel = &corruptNth{targets: map[int]bool{3: true}} // third I-frame dies
	sc := newScenario(t, scenarioOpts{cfg: baseCfg(), pipe: pipe, seed: 3})
	sc.enqueueAll(10, 1024)
	sc.runFor(2 * sim.Second)
	sc.assertAllDelivered(t, 10)
	m := sc.pair.Metrics()
	if m.Retransmissions.Value() != 1 {
		t.Fatalf("retransmissions = %d, want exactly 1 (stale NAKs must be ignored)",
			m.Retransmissions.Value())
	}
	if d := sc.duplicates(); d != 0 {
		t.Fatalf("%d duplicates", d)
	}
	// The retransmission carries a fresh sequence number: 10 firsts + 1
	// retransmission = 11 sequence numbers consumed.
	if got := sc.pair.Sender.NextSeq(); got != 11 {
		t.Fatalf("NextSeq = %d, want 11", got)
	}
}

func TestCorruptedTrailingFrameRecoveredByResolvingTimeout(t *testing.T) {
	// The last frame of a burst is corrupted and no later frame reveals
	// the gap; the sender's resolving-period timeout must recover it.
	pipe := basePipe()
	pipe.IModel = &corruptNth{targets: map[int]bool{10: true}} // last of 10
	sc := newScenario(t, scenarioOpts{cfg: baseCfg(), pipe: pipe, seed: 4})
	sc.enqueueAll(10, 1024)
	sc.runFor(3 * sim.Second)
	sc.assertAllDelivered(t, 10)
	if sc.pair.Metrics().Retransmissions.Value() == 0 {
		t.Fatal("expected a resolving-timeout retransmission")
	}
	if sc.pair.Sender.Unacked() != 0 {
		t.Fatal("trailing frame never released")
	}
}

func TestRandomLossZeroLossInvariant(t *testing.T) {
	pipe := basePipe()
	pipe.IModel = channel.FixedProb{P: 0.2}
	pipe.CModel = channel.FixedProb{P: 0.05}
	sc := newScenario(t, scenarioOpts{cfg: baseCfg(), pipe: pipe, seed: 5})
	const n = 300
	sc.enqueueAll(n, 1024)
	sc.runFor(30 * sim.Second)
	sc.assertAllDelivered(t, n)
	if sc.failedAt != 0 {
		t.Fatalf("spurious link failure: %s", sc.failMsg)
	}
}

func TestZeroLossProperty(t *testing.T) {
	// Property: for random error rates and seeds, every datagram is
	// delivered at least once while the link stays up.
	f := func(seed uint16, pfRaw, pcRaw uint8) bool {
		pf := float64(pfRaw%40) / 100 // 0..0.39
		pc := float64(pcRaw%20) / 100 // 0..0.19
		pipe := basePipe()
		pipe.IModel = channel.FixedProb{P: pf}
		pipe.CModel = channel.FixedProb{P: pc}
		cfg := baseCfg()
		sched := sim.NewScheduler()
		link := channel.NewLink(sched, pipe, sim.NewRNG(uint64(seed)+1))
		got := map[uint64]int{}
		pair := newTestPair(sched, link, cfg,
			func(_ sim.Time, dg arq.Datagram, _ uint32) { got[dg.ID]++ }, nil)
		pair.Start()
		const n = 60
		for i := 0; i < n; i++ {
			pair.Sender.Enqueue(arq.Datagram{ID: uint64(i), Payload: make([]byte, 512)})
		}
		sched.RunFor(60 * sim.Second)
		for i := 0; i < n; i++ {
			if got[uint64(i)] == 0 {
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
	lost := map[int]bool{}
	for i := 1; i <= cfg.CumulationDepth+1; i++ {
		lost[i] = true
	}
	pipe := basePipe()
	pipe.IModel = &corruptNth{targets: map[int]bool{3: true}}
	sc := newScenario(t, scenarioOpts{cfg: cfg, pipe: pipe, seed: 3,
		asymBtoA: &channel.PipeConfig{
			RateBps: pipe.RateBps,
			Delay:   pipe.Delay,
			CModel:  &corruptNth{targets: lost},
		}})
	sc.enqueueAll(10, 1024)
	sc.runFor(2 * sim.Second)
	sc.assertAllDelivered(t, 10)
	if sc.failedAt != 0 {
		t.Fatalf("spurious link failure: %s", sc.failMsg)
	}
}

func TestCheckpointLossCostsOneIntervalNotRoundTrip(t *testing.T) {
	// §3.3's key claim: a lost checkpoint adds ~W_cp to holding time, not
	// a round trip. Corrupt exactly one checkpoint and compare max holding
	// with the clean run.
	clean := newScenario(t, scenarioOpts{cfg: baseCfg(), pipe: basePipe(), seed: 6})
	clean.enqueueAll(50, 1024)
	clean.runFor(3 * sim.Second)

	pipe := basePipe()
	lossy := newScenario(t, scenarioOpts{cfg: baseCfg(), pipe: pipe, seed: 6,
		asymBtoA: &channel.PipeConfig{
			RateBps: pipe.RateBps,
			Delay:   pipe.Delay,
			CModel:  &corruptNth{targets: map[int]bool{2: true}},
		}})
	lossy.enqueueAll(50, 1024)
	lossy.runFor(3 * sim.Second)

	lossy.assertAllDelivered(t, 50)
	dmax := lossy.pair.Metrics().HoldingTime.Max() - clean.pair.Metrics().HoldingTime.Max()
	wcp := float64(baseCfg().CheckpointInterval)
	if dmax > 2*wcp {
		t.Fatalf("checkpoint loss cost %v of holding, want <= ~%v",
			sim.Duration(dmax), sim.Duration(2*wcp))
	}
	if lossy.pair.Metrics().Retransmissions.Value() != 0 {
		t.Fatalf("checkpoint loss must not cause retransmissions, got %d",
			lossy.pair.Metrics().Retransmissions.Value())
	}
}

func TestEnforcedRecoveryAfterCheckpointSilence(t *testing.T) {
	sc := newScenario(t, scenarioOpts{cfg: baseCfg(), pipe: basePipe(), seed: 7})
	sc.enqueueAll(20, 1024)
	sc.runFor(200 * sim.Millisecond) // everything delivered, link idle

	// Kill the reverse path: checkpoints stop reaching the sender.
	sc.link.BtoA.SetDown(true)
	sc.runFor(baseCfg().CheckpointTimerTimeout() + 5*sim.Millisecond)
	if !sc.pair.Sender.Recovering() {
		t.Fatal("sender should be in enforced recovery after checkpoint silence")
	}
	if sc.pair.Sender.Failed() {
		t.Fatal("failed too early")
	}
	// New I-frames are suspended during recovery.
	sc.pair.Sender.Enqueue(arq.Datagram{ID: 1000, Payload: make([]byte, 64)})
	sc.runFor(5 * sim.Millisecond)
	if sc.got[1000] != 0 {
		t.Fatal("new I-frame sent during enforced recovery")
	}

	// Restore the reverse path; the next checkpoint is not enforced (the
	// Request-NAK was lost with the link down), so the sender still can't
	// send new frames, but its retry/request must eventually elicit an
	// Enforced-NAK and resume.
	sc.link.BtoA.SetDown(false)
	sc.runFor(2 * sim.Second)
	if sc.pair.Sender.Recovering() || sc.pair.Sender.Failed() {
		t.Fatalf("recovery did not complete: recovering=%v failed=%v (%s)",
			sc.pair.Sender.Recovering(), sc.pair.Sender.Failed(), sc.failMsg)
	}
	if sc.got[1000] == 0 {
		t.Fatal("datagram queued during recovery never delivered")
	}
}

func TestLinkFailureDeclaredWithinBound(t *testing.T) {
	cfg := baseCfg()
	sc := newScenario(t, scenarioOpts{cfg: cfg, pipe: basePipe(), seed: 8})
	sc.enqueueAll(5, 512)
	sc.runFor(200 * sim.Millisecond)
	killAt := sc.sched.Now()
	sc.link.Fail()
	sc.runFor(10 * sim.Second)
	if sc.failedAt == 0 {
		t.Fatal("link failure never declared")
	}
	// Detection bound: last checkpoint + the armed checkpoint timer
	// + failure timeout, plus one checkpoint interval of phase slack.
	bound := cfg.CheckpointTimerTimeout() + cfg.FailureTimeout() + cfg.CheckpointInterval
	if got := sc.failedAt.Sub(killAt); got > bound {
		t.Fatalf("failure declared after %v, bound %v", got, bound)
	}
	if !sc.pair.Sender.Failed() {
		t.Fatal("Failed() should report true")
	}
	// Post-failure enqueues are refused.
	if sc.pair.Sender.Enqueue(arq.Datagram{ID: 9999}) {
		t.Fatal("enqueue accepted after failure")
	}
}

func TestFailureRetainsUndeliveredDatagramsForRerouting(t *testing.T) {
	cfg := baseCfg()
	sc := newScenario(t, scenarioOpts{cfg: cfg, pipe: basePipe(), seed: 9})
	// Kill the link instantly so nothing gets through.
	sc.link.Fail()
	sc.enqueueAll(7, 512)
	sc.runFor(20 * sim.Second)
	if sc.failedAt == 0 {
		t.Fatal("failure not declared")
	}
	und := sc.pair.Sender.UnreleasedDatagrams()
	if len(und) != 7 {
		t.Fatalf("%d unreleased datagrams, want 7", len(und))
	}
}

func TestRequestRetriesExtendRecovery(t *testing.T) {
	cfg := baseCfg()
	cfg.RequestRetries = 2
	sc := newScenario(t, scenarioOpts{cfg: cfg, pipe: basePipe(), seed: 10})
	sc.runFor(100 * sim.Millisecond)
	killAt := sc.sched.Now()
	sc.link.Fail()
	sc.runFor(20 * sim.Second)
	if sc.failedAt == 0 {
		t.Fatal("failure not declared")
	}
	// 1 try + 2 retries, minus up to one checkpoint interval of phase slack
	// (the checkpoint timer was last re-armed by the final checkpoint
	// before the kill).
	minBound := cfg.CheckpointTimeout() - cfg.CheckpointInterval + 3*cfg.FailureTimeout()
	if got := sc.failedAt.Sub(killAt); got < minBound {
		t.Fatalf("failed after %v, want >= %v with retries", got, minBound)
	}
}

func TestUnrecoverableFailureByLinkLifetime(t *testing.T) {
	cfg := baseCfg()
	cfg.LinkLifetime = 100 * sim.Millisecond
	sc := newScenario(t, scenarioOpts{cfg: cfg, pipe: basePipe(), seed: 11})
	sc.runFor(90 * sim.Millisecond)
	sc.link.Fail()
	// The checkpoint timer fires ~45ms later, at which point the remaining
	// lifetime (< 0) cannot fit the expected response: fail immediately,
	// without waiting out the failure timer.
	sc.runFor(cfg.CheckpointTimerTimeout() + 15*sim.Millisecond)
	if sc.failedAt == 0 {
		t.Fatal("unrecoverable failure not declared promptly")
	}
}

func TestFlowControlThrottlesAndRecovers(t *testing.T) {
	cfg := baseCfg()
	cfg.RecvBufferCap = 16
	cfg.ProcTime = 500 * sim.Microsecond // receiver slower than the wire
	pipe := basePipe()
	sc := newScenario(t, scenarioOpts{cfg: cfg, pipe: pipe, seed: 12})
	const n = 400
	sc.enqueueAll(n, 1024)
	sc.runFor(60 * sim.Second)
	sc.assertAllDelivered(t, n)
	m := sc.pair.Metrics()
	if m.RateChanges.Value() == 0 {
		t.Fatal("flow control never engaged")
	}
	if sc.pair.Sender.RateFraction() > 1 {
		t.Fatal("rate fraction above 1")
	}
	// Receiver queue must have respected its cap.
	if occ := m.RecvBufOcc.Max(); occ > float64(cfg.RecvBufferCap) {
		t.Fatalf("receive buffer exceeded cap: %v", occ)
	}
}

func TestSendBufferCapRejectsEnqueue(t *testing.T) {
	cfg := baseCfg()
	cfg.SendBufferCap = 5
	sc := newScenario(t, scenarioOpts{cfg: cfg, pipe: basePipe(), seed: 13})
	accepted := 0
	for i := 0; i < 10; i++ {
		if sc.pair.Sender.Enqueue(arq.Datagram{ID: uint64(i), Payload: make([]byte, 64)}) {
			accepted++
		}
	}
	if accepted != 5 {
		t.Fatalf("accepted %d, want 5", accepted)
	}
	sc.runFor(sim.Second)
	// After the buffer drains, capacity is available again.
	if !sc.pair.Sender.Enqueue(arq.Datagram{ID: 100, Payload: make([]byte, 64)}) {
		t.Fatal("enqueue refused after drain")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64, uint64, int) {
		pipe := basePipe()
		pipe.IModel = channel.FixedProb{P: 0.15}
		pipe.CModel = channel.FixedProb{P: 0.05}
		sc := newScenario(t, scenarioOpts{cfg: baseCfg(), pipe: pipe, seed: 99})
		sc.enqueueAll(200, 1024)
		sc.runFor(20 * sim.Second)
		m := sc.pair.Metrics()
		return m.Retransmissions.Value(), m.Delivered.Value(),
			m.ControlSent.Value(), len(sc.order)
	}
	r1a, r1b, r1c, r1d := run()
	r2a, r2b, r2c, r2d := run()
	if r1a != r2a || r1b != r2b || r1c != r2c || r1d != r2d {
		t.Fatalf("nondeterministic run: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			r1a, r1b, r1c, r1d, r2a, r2b, r2c, r2d)
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
	pipe := basePipe()
	pipe.IModel = channel.FixedProb{P: 0.1}
	pipe.CModel = channel.FixedProb{P: 0.02}
	sc := newScenario(t, scenarioOpts{cfg: cfg, pipe: pipe, seed: 14})
	const n = 3000
	sc.enqueueAll(n, 1024)
	sc.runFor(60 * sim.Second)
	sc.assertAllDelivered(t, n)

	tf := 1045 * 8.0 / 100e6 // wire bytes / rate, seconds
	sBar := 1 / (1 - 0.1)
	nCp := 1 / (1 - 0.02)
	r := baseCfg().RoundTrip.Seconds()
	icp := baseCfg().CheckpointInterval.Seconds()
	bLams := (1 / tf) * sBar * (r + (nCp-0.5)*icp)
	maxUnacked := sc.pair.Metrics().SendBufOcc.Max()
	if maxUnacked > 3*bLams+float64(n) { // queue includes untransmitted backlog
		t.Fatalf("sender occupancy %v way beyond transparent size %v", maxUnacked, bLams)
	}
}

func TestShutdownStopsWithoutFailure(t *testing.T) {
	sc := newScenario(t, scenarioOpts{cfg: baseCfg(), pipe: basePipe(), seed: 30})
	sc.enqueueAll(5, 256)
	sc.runFor(5 * sim.Millisecond)
	sc.pair.Sender.Shutdown()
	sc.runFor(20 * sim.Second)
	if sc.pair.Metrics().Failures.Value() != 0 {
		t.Fatal("shutdown counted as failure")
	}
	if sc.failedAt != 0 {
		t.Fatal("failure callback invoked after shutdown")
	}
	if sc.pair.Sender.Enqueue(arq.Datagram{ID: 99}) {
		t.Fatal("enqueue accepted after shutdown")
	}
	// Idempotent.
	sc.pair.Sender.Shutdown()
}
