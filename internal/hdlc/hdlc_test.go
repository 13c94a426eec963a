package hdlc

import (
	"testing"
	"testing/quick"

	"repro/internal/arq"
	"repro/internal/arq/arqtest"
	"repro/internal/channel"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// scenario is the engine test kit's Scenario with this engine's halves typed.
type scenario = arqtest.Scenario[*Sender, *Receiver]

func newScenario(t *testing.T, cfg Config, o arqtest.Options) *scenario {
	t.Helper()
	return arqtest.New[*Sender, *Receiver](t, cfg, o)
}

// assertStrictReliability fails the test unless datagrams 0…n−1 each
// arrived exactly once, in order: HDLC's strict reliability.
func assertStrictReliability(t *testing.T, sc *scenario, n int) {
	t.Helper()
	sc.AssertExactlyOnce(n)
	for i, id := range sc.Order {
		if id != uint64(i) {
			t.Fatalf("order[%d] = %d: FIFO delivery violated", i, id)
		}
	}
}

// baseCfg is the standard test configuration on the kit's link: a window
// of 32 with absolute numbering.
func baseCfg() Config {
	cfg := Defaults(arqtest.RoundTrip)
	cfg.WindowSize = 32
	cfg.ModulusBits = 0
	return cfg
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
	if c := Defaults(time20()); c.Timeout-c.RoundTrip != 10*sim.Millisecond {
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
	sc := newScenario(t, baseCfg(), arqtest.Options{Seed: 1})
	const n = 300
	sc.EnqueueAll(n, 1024)
	sc.Sched.RunFor(10 * sim.Second)
	assertStrictReliability(t, sc, n)
	if sc.Metrics().Retransmissions.Value() != 0 {
		t.Fatalf("%d retransmissions on perfect channel", sc.Metrics().Retransmissions.Value())
	}
	if sc.Sender.Unacked() != 0 {
		t.Fatal("window not drained")
	}
}

func TestWindowLimitsOutstanding(t *testing.T) {
	cfg := baseCfg()
	cfg.WindowSize = 8
	// Huge delay so no RR returns during the test prefix.
	pipe := arqtest.Pipe()
	pipe.Delay = channel.ConstantDelay(sim.Second)
	cfg.Timeout = 3 * sim.Second
	sc := newScenario(t, cfg, arqtest.Options{Pipe: pipe, Seed: 2})
	sc.EnqueueAll(100, 256)
	sc.Sched.RunFor(500 * sim.Millisecond)
	if got := sc.Sender.Unacked(); got != 8 {
		t.Fatalf("unacked = %d, want window 8", got)
	}
	if sc.Metrics().FirstTx.Value() != 8 {
		t.Fatalf("transmitted %d, want 8 (window stall)", sc.Metrics().FirstTx.Value())
	}
}

func TestSREJRecoversSingleLoss(t *testing.T) {
	pipe := arqtest.Pipe()
	pipe.IModel = arqtest.CorruptAt(3)
	sc := newScenario(t, baseCfg(), arqtest.Options{Pipe: pipe, Seed: 3})
	const n = 20
	sc.EnqueueAll(n, 1024)
	sc.Sched.RunFor(5 * sim.Second)
	assertStrictReliability(t, sc, n)
	m := sc.Metrics()
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
	pipe := arqtest.Pipe()
	pipe.IModel = arqtest.CorruptAt(3)
	sc := newScenario(t, cfg, arqtest.Options{Pipe: pipe, Seed: 4})
	const n = 20
	sc.EnqueueAll(n, 1024)
	sc.Sched.RunFor(5 * sim.Second)
	assertStrictReliability(t, sc, n)
	m := sc.Metrics()
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
	pipe := arqtest.Pipe()
	pipe.IModel = arqtest.CorruptAt(5)
	pipe.CModel = arqtest.CorruptAt(1)
	sc := newScenario(t, baseCfg(), arqtest.Options{Pipe: pipe, Seed: 5})
	const n = 20
	sc.EnqueueAll(n, 1024)
	sc.Sched.RunFor(10 * sim.Second)
	assertStrictReliability(t, sc, n)
	if sc.Metrics().Retransmissions.Value() == 0 {
		t.Fatal("no timeout retransmission happened")
	}
}

func TestLostRRRecoveredByPoll(t *testing.T) {
	// Kill the first RR; the sender's timeout poll must elicit another so
	// the window turns over.
	cfg := baseCfg()
	cfg.WindowSize = 4
	ba := arqtest.Pipe()
	ba.CModel = arqtest.CorruptAt(1)
	sc := newScenario(t, cfg, arqtest.Options{BtoA: &ba, Seed: 6})
	sc.EnqueueAll(12, 512)
	sc.Sched.RunFor(10 * sim.Second)
	sc.AssertExactlyOnce(12)
}

func TestStrictReliabilityProperty(t *testing.T) {
	f := func(seed uint16, pfRaw, pcRaw uint8, gbn bool) bool {
		pf := float64(pfRaw%30) / 100
		pc := float64(pcRaw%15) / 100
		cfg := baseCfg()
		if gbn {
			cfg.Mode = GoBackN
		}
		pipe := arqtest.Pipe()
		pipe.IModel = channel.FixedProb{P: pf}
		pipe.CModel = channel.FixedProb{P: pc}
		sc := newScenario(t, cfg, arqtest.Options{Pipe: pipe, Seed: uint64(seed) + 1})
		const n = 40
		sc.EnqueueAll(n, 512)
		sc.Sched.RunFor(120 * sim.Second)
		if len(sc.Order) != n {
			return false
		}
		for i, id := range sc.Order {
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
	pipe := arqtest.Pipe()
	sc := newScenario(t, cfg, arqtest.Options{Pipe: pipe, Seed: 8})
	// Offer at wire saturation for 2 seconds.
	f := arq.Datagram{Payload: make([]byte, 1024)}
	tf := sim.Duration(float64((1024+21)*8) / pipe.RateBps * float64(sim.Second))
	var id uint64
	var feed func()
	feed = func() {
		f.ID = id
		id++
		sc.Sender.Enqueue(f)
		if sc.Sched.Now() < sim.Time(2*sim.Second) {
			sc.Sched.ScheduleAfter(tf, feed)
		}
	}
	sc.Sched.Schedule(0, feed)
	sc.Sched.RunFor(2 * sim.Second)
	early := sc.Sender.Outstanding()
	sc.Sched.RunFor(sim.Second) // drain after arrivals stop
	if early < cfg.WindowSize*2 {
		t.Fatalf("backlog %d did not grow beyond the window", early)
	}
}

func TestHoldingTimeRecorded(t *testing.T) {
	sc := newScenario(t, baseCfg(), arqtest.Options{Seed: 9})
	sc.EnqueueAll(50, 1024)
	sc.Sched.RunFor(5 * sim.Second)
	m := sc.Metrics()
	if sc.Outstanding() != 0 {
		t.Fatalf("%d of 50 datagrams never released", sc.Outstanding())
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
	cfg.Metrics = metrics.New()
	sc := newScenario(t, cfg, arqtest.Options{Seed: 20})
	const n = 12
	sc.EnqueueAll(n, 1024)
	sc.Sched.RunFor(5 * sim.Second)
	assertStrictReliability(t, sc, n)
	stutters := sc.Sender.im.stutterRetx.Value()
	if stutters == 0 {
		t.Fatal("stutter mode never used the idle wire")
	}
	// Stutter retransmissions count as retransmissions on the wire.
	if sc.Metrics().Retransmissions.Value() < stutters {
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
		pipe := arqtest.Pipe()
		pipe.IModel = arqtest.CorruptAt(2)
		ba := arqtest.Pipe()
		ba.CModel = arqtest.CorruptAt(1)
		var last sim.Time
		sc := newScenario(t, cfg, arqtest.Options{Pipe: pipe, BtoA: &ba, Seed: 21,
			Deliver: func(now sim.Time, _ arq.Datagram, _ uint32) { last = now }})
		sc.EnqueueAll(8, 1024)
		sc.Sched.RunFor(30 * sim.Second)
		if len(sc.Order) != 8 {
			t.Fatalf("stutter=%v delivered %d", stutter, len(sc.Order))
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
	cfg := baseCfg()
	cfg.Metrics = metrics.New()
	sc := newScenario(t, cfg, arqtest.Options{Seed: 22})
	sc.EnqueueAll(20, 1024)
	sc.Sched.RunFor(5 * sim.Second)
	if sc.Sender.im.stutterRetx.Value() != 0 {
		t.Fatal("stutter used without being enabled")
	}
}
