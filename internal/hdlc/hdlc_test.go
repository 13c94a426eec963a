package hdlc

import (
	"testing"
	"testing/quick"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/sim"
)

type scenario struct {
	sched *sim.Scheduler
	pair  *testPair
	link  *channel.Link
	got   map[uint64]int
	order []uint64
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

func newScenario(cfg Config, pipe channel.PipeConfig, seed uint64) *scenario {
	sched := sim.NewScheduler()
	link := channel.NewLink(sched, pipe, sim.NewRNG(seed))
	sc := &scenario{sched: sched, link: link, got: make(map[uint64]int)}
	sc.pair = newTestPair(sched, link, cfg, func(_ sim.Time, dg arq.Datagram, _ uint32) {
		sc.got[dg.ID]++
		sc.order = append(sc.order, dg.ID)
	}, nil)
	sc.pair.Start()
	return sc
}

func (sc *scenario) enqueueAll(n, size int) {
	for i := 0; i < n; i++ {
		sc.pair.Sender.Enqueue(arq.Datagram{ID: uint64(i), Payload: make([]byte, size)})
	}
}

func (sc *scenario) assertStrictReliability(t *testing.T, n int) {
	t.Helper()
	if len(sc.order) != n {
		t.Fatalf("delivered %d datagrams, want %d", len(sc.order), n)
	}
	for i, id := range sc.order {
		if id != uint64(i) {
			t.Fatalf("order[%d] = %d: FIFO delivery violated", i, id)
		}
	}
	for i := 0; i < n; i++ {
		if sc.got[uint64(i)] != 1 {
			t.Fatalf("datagram %d delivered %d times", i, sc.got[uint64(i)])
		}
	}
}

func baseCfg() Config {
	cfg := Defaults(26 * sim.Millisecond)
	cfg.WindowSize = 32
	cfg.ModulusBits = 0
	return cfg
}

func basePipe() channel.PipeConfig {
	return channel.PipeConfig{
		RateBps: 100e6,
		Delay:   channel.ConstantDelay(13 * sim.Millisecond),
	}
}

func TestConfigValidate(t *testing.T) {
	if err := Defaults(20 * sim.Millisecond).Validate(); err != nil {
		t.Fatalf("defaults: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.WindowSize = 0 },
		func(c *Config) { c.Mode = Mode(9) },
		func(c *Config) { c.ModulusBits = 33 },
		func(c *Config) { c.WindowSize = 65; c.ModulusBits = 7 }, // > M/2
		func(c *Config) { c.Timeout = 0 },
		func(c *Config) { c.Timeout = c.RoundTrip / 2 },
		func(c *Config) { c.RoundTrip = -1 },
	}
	for i, mut := range bad {
		c := Defaults(20 * sim.Millisecond)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if Defaults(time20()).Alpha() != 10*sim.Millisecond {
		t.Fatal("alpha")
	}
	if SelectiveRepeat.String() != "SR-HDLC" || GoBackN.String() != "GBN-HDLC" {
		t.Fatal("mode names")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode string")
	}
}

func time20() sim.Duration { return 20 * sim.Millisecond }

func TestPerfectChannelStrictReliability(t *testing.T) {
	sc := newScenario(baseCfg(), basePipe(), 1)
	const n = 300
	sc.enqueueAll(n, 1024)
	sc.sched.RunFor(10 * sim.Second)
	sc.assertStrictReliability(t, n)
	if sc.pair.Metrics().Retransmissions.Value() != 0 {
		t.Fatalf("%d retransmissions on perfect channel", sc.pair.Metrics().Retransmissions.Value())
	}
	if sc.pair.Sender.Unacked() != 0 {
		t.Fatal("window not drained")
	}
}

func TestWindowLimitsOutstanding(t *testing.T) {
	cfg := baseCfg()
	cfg.WindowSize = 8
	// Huge delay so no RR returns during the test prefix.
	pipe := basePipe()
	pipe.Delay = channel.ConstantDelay(sim.Second)
	cfg.Timeout = 3 * sim.Second
	sc := newScenario(cfg, pipe, 2)
	sc.enqueueAll(100, 256)
	sc.sched.RunFor(500 * sim.Millisecond)
	if got := sc.pair.Sender.Unacked(); got != 8 {
		t.Fatalf("unacked = %d, want window 8", got)
	}
	if sc.pair.Metrics().FirstTx.Value() != 8 {
		t.Fatalf("transmitted %d, want 8 (window stall)", sc.pair.Metrics().FirstTx.Value())
	}
}

type corruptNth struct {
	targets map[int]bool
	count   int
}

func (c *corruptNth) Corrupt(_ *sim.RNG, _, _ sim.Time, _ int) bool {
	c.count++
	return c.targets[c.count]
}

func TestSREJRecoversSingleLoss(t *testing.T) {
	pipe := basePipe()
	pipe.IModel = &corruptNth{targets: map[int]bool{3: true}}
	sc := newScenario(baseCfg(), pipe, 3)
	const n = 20
	sc.enqueueAll(n, 1024)
	sc.sched.RunFor(5 * sim.Second)
	sc.assertStrictReliability(t, n)
	m := sc.pair.Metrics()
	if m.Retransmissions.Value() != 1 {
		t.Fatalf("retransmissions = %d, want 1 (SREJ selective)", m.Retransmissions.Value())
	}
	if m.NAKsSent.Value() != 1 {
		t.Fatalf("SREJs = %d, want 1", m.NAKsSent.Value())
	}
	// Receive buffer held out-of-order frames while waiting.
	if m.RecvBufOcc.Max() == 0 {
		t.Fatal("SR receiver never buffered out-of-order frames")
	}
}

func TestGoBackNDiscardsAndBacksUp(t *testing.T) {
	cfg := baseCfg()
	cfg.Mode = GoBackN
	pipe := basePipe()
	pipe.IModel = &corruptNth{targets: map[int]bool{3: true}}
	sc := newScenario(cfg, pipe, 4)
	const n = 20
	sc.enqueueAll(n, 1024)
	sc.sched.RunFor(5 * sim.Second)
	sc.assertStrictReliability(t, n)
	m := sc.pair.Metrics()
	// GBN retransmits the lost frame and everything after it in flight.
	if m.Retransmissions.Value() < 2 {
		t.Fatalf("retransmissions = %d, want several (go-back-n)", m.Retransmissions.Value())
	}
	// GBN receiver never buffers.
	if m.RecvBufOcc.Max() != 0 {
		t.Fatal("GBN receiver buffered out-of-order frames")
	}
}

func TestTimeoutRecoversLostSREJ(t *testing.T) {
	// Corrupt an I-frame and then the SREJ for it: only the sender's
	// timeout (with P-bit poll) can recover, exactly the unbounded
	// inconsistency-gap scenario §2.3 describes for SR-HDLC.
	pipe := basePipe()
	pipe.IModel = &corruptNth{targets: map[int]bool{5: true}}
	pipe.CModel = &corruptNth{targets: map[int]bool{1: true}}
	sc := newScenario(baseCfg(), pipe, 5)
	const n = 20
	sc.enqueueAll(n, 1024)
	sc.sched.RunFor(10 * sim.Second)
	sc.assertStrictReliability(t, n)
	if sc.pair.Metrics().Retransmissions.Value() == 0 {
		t.Fatal("no timeout retransmission happened")
	}
}

func TestLostRRRecoveredByPoll(t *testing.T) {
	// Kill the first RR; the sender's timeout poll must elicit another so
	// the window turns over.
	pipe := basePipe()
	cfg := baseCfg()
	cfg.WindowSize = 4
	sched := sim.NewScheduler()
	rng := sim.NewRNG(6)
	link := channel.NewAsymmetricLink(sched, pipe, channel.PipeConfig{
		RateBps: pipe.RateBps,
		Delay:   pipe.Delay,
		CModel:  &corruptNth{targets: map[int]bool{1: true}},
	}, rng)
	got := map[uint64]int{}
	var order []uint64
	pair := newTestPair(sched, link, cfg, func(_ sim.Time, dg arq.Datagram, _ uint32) {
		got[dg.ID]++
		order = append(order, dg.ID)
	}, nil)
	pair.Start()
	for i := 0; i < 12; i++ {
		pair.Sender.Enqueue(arq.Datagram{ID: uint64(i), Payload: make([]byte, 512)})
	}
	sched.RunFor(10 * sim.Second)
	if len(order) != 12 {
		t.Fatalf("delivered %d, want 12", len(order))
	}
	for i := 0; i < 12; i++ {
		if got[uint64(i)] != 1 {
			t.Fatalf("datagram %d delivered %d times", i, got[uint64(i)])
		}
	}
}

func TestRandomLossStrictReliability(t *testing.T) {
	pipe := basePipe()
	pipe.IModel = channel.FixedProb{P: 0.15}
	pipe.CModel = channel.FixedProb{P: 0.05}
	sc := newScenario(baseCfg(), pipe, 7)
	const n = 200
	sc.enqueueAll(n, 1024)
	sc.sched.RunFor(60 * sim.Second)
	sc.assertStrictReliability(t, n)
}

func TestStrictReliabilityProperty(t *testing.T) {
	f := func(seed uint16, pfRaw, pcRaw uint8, gbn bool) bool {
		pf := float64(pfRaw%30) / 100
		pc := float64(pcRaw%15) / 100
		cfg := baseCfg()
		if gbn {
			cfg.Mode = GoBackN
		}
		pipe := basePipe()
		pipe.IModel = channel.FixedProb{P: pf}
		pipe.CModel = channel.FixedProb{P: pc}
		sc := newScenario(cfg, pipe, uint64(seed)+1)
		const n = 40
		sc.enqueueAll(n, 512)
		sc.sched.RunFor(120 * sim.Second)
		if len(sc.order) != n {
			return false
		}
		for i, id := range sc.order {
			if id != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSenderQueueGrowsWithoutTransparentBound(t *testing.T) {
	// §4's key buffer claim: with sustained arrivals at the service rate,
	// the SR-HDLC sending buffer grows without bound because each window
	// turn costs a round trip of dead time. Offer frames at the wire rate
	// and watch the backlog climb.
	cfg := baseCfg()
	cfg.WindowSize = 16
	pipe := basePipe()
	sc := newScenario(cfg, pipe, 8)
	// Offer at wire saturation for 2 seconds.
	f := arq.Datagram{Payload: make([]byte, 1024)}
	tf := sim.Duration(float64((1024+21)*8) / pipe.RateBps * float64(sim.Second))
	var id uint64
	var feed func()
	feed = func() {
		f.ID = id
		id++
		sc.pair.Sender.Enqueue(f)
		if sc.sched.Now() < sim.Time(2*sim.Second) {
			sc.sched.ScheduleAfter(tf, feed)
		}
	}
	sc.sched.Schedule(0, feed)
	sc.sched.RunFor(2 * sim.Second)
	early := sc.pair.Sender.Outstanding()
	sc.sched.RunFor(sim.Second) // drain after arrivals stop
	if early < cfg.WindowSize*2 {
		t.Fatalf("backlog %d did not grow beyond the window", early)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64, int) {
		pipe := basePipe()
		pipe.IModel = channel.FixedProb{P: 0.1}
		pipe.CModel = channel.FixedProb{P: 0.03}
		sc := newScenario(baseCfg(), pipe, 42)
		sc.enqueueAll(100, 1024)
		sc.sched.RunFor(30 * sim.Second)
		return sc.pair.Metrics().Retransmissions.Value(), sc.pair.Metrics().ControlSent.Value(), len(sc.order)
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", a1, b1, c1, a2, b2, c2)
	}
}

func TestHoldingTimeRecorded(t *testing.T) {
	sc := newScenario(baseCfg(), basePipe(), 9)
	sc.enqueueAll(50, 1024)
	sc.sched.RunFor(5 * sim.Second)
	m := sc.pair.Metrics()
	if m.HoldingTime.N() != 50 {
		t.Fatalf("holding samples = %d", m.HoldingTime.N())
	}
	// Minimum conceivable holding: a round trip.
	if m.HoldingTime.Mean() < float64(baseCfg().RoundTrip)/2 {
		t.Fatalf("mean holding %v implausibly small", sim.Duration(m.HoldingTime.Mean()))
	}
}

func TestStutterFillsIdleTime(t *testing.T) {
	cfg := baseCfg()
	cfg.WindowSize = 4
	cfg.Stutter = true
	sc := newScenario(cfg, basePipe(), 20)
	const n = 12
	sc.enqueueAll(n, 1024)
	sc.sched.RunFor(5 * sim.Second)
	sc.assertStrictReliability(t, n)
	if sc.pair.Sender.Stutters() == 0 {
		t.Fatal("stutter mode never used the idle wire")
	}
	// Stutter retransmissions count as retransmissions on the wire.
	if sc.pair.Metrics().Retransmissions.Value() < sc.pair.Sender.Stutters() {
		t.Fatal("stutters not accounted as retransmissions")
	}
}

func TestStutterBeatsTimeoutRecovery(t *testing.T) {
	// Corrupt the second I-frame and the SREJ asking for it: plain SR must
	// wait out t_out; the stuttering sender has already repeated the frame.
	run := func(stutter bool) sim.Duration {
		cfg := baseCfg()
		cfg.WindowSize = 8
		cfg.Stutter = stutter
		sched := sim.NewScheduler()
		rng := sim.NewRNG(21)
		pipe := basePipe()
		pipe.IModel = &corruptNth{targets: map[int]bool{2: true}}
		link := channel.NewAsymmetricLink(sched, pipe, channel.PipeConfig{
			RateBps: pipe.RateBps,
			Delay:   pipe.Delay,
			CModel:  &corruptNth{targets: map[int]bool{1: true}},
		}, rng)
		var last sim.Time
		count := 0
		pair := newTestPair(sched, link, cfg, func(now sim.Time, dg arq.Datagram, _ uint32) {
			count++
			last = now
		}, nil)
		pair.Start()
		for i := 0; i < 8; i++ {
			pair.Sender.Enqueue(arq.Datagram{ID: uint64(i), Payload: make([]byte, 1024)})
		}
		sched.RunFor(30 * sim.Second)
		if count != 8 {
			t.Fatalf("stutter=%v delivered %d", stutter, count)
		}
		return sim.Duration(last)
	}
	plain := run(false)
	stuttered := run(true)
	if stuttered >= plain {
		t.Fatalf("stutter %v not faster than plain %v", stuttered, plain)
	}
}

func TestStutterOffByDefault(t *testing.T) {
	sc := newScenario(baseCfg(), basePipe(), 22)
	sc.enqueueAll(20, 1024)
	sc.sched.RunFor(5 * sim.Second)
	if sc.pair.Sender.Stutters() != 0 {
		t.Fatal("stutter used without being enabled")
	}
}
