package ssarq

import (
	"testing"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/sim"
)

type scenario struct {
	sched *sim.Scheduler
	pair  *testPair
	got   map[uint64]int
	last  sim.Time
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
	sc := &scenario{sched: sched, got: make(map[uint64]int)}
	sc.pair = newTestPair(sched, link, cfg, func(now sim.Time, dg arq.Datagram, _ uint32) {
		sc.got[dg.ID]++
		sc.last = now
	}, nil)
	sc.pair.Start()
	return sc
}

func (sc *scenario) enqueueAll(n, size int) {
	for i := 0; i < n; i++ {
		if !sc.pair.Enqueue(arq.Datagram{ID: uint64(i + 1), Payload: make([]byte, size), EnqueuedAt: sc.sched.Now()}) {
			panic("enqueue refused")
		}
	}
}

func (sc *scenario) assertExactlyOnce(t *testing.T, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if sc.got[uint64(i)] != 1 {
			t.Fatalf("datagram %d delivered %d times, want exactly once", i, sc.got[uint64(i)])
		}
	}
	if len(sc.got) != n {
		t.Fatalf("delivered %d distinct IDs, want %d", len(sc.got), n)
	}
}

func baseCfg() Config { return Defaults(20 * sim.Millisecond) }
func basePipe() channel.PipeConfig {
	return channel.PipeConfig{
		RateBps: 100e6,
		Delay:   channel.ConstantDelay(10 * sim.Millisecond),
	}
}

func TestPacking(t *testing.T) {
	for slot := 0; slot < MaxSlots; slot += 17 {
		for label := uint32(0); label < labelMod; label++ {
			v := Pack(label, slot, 0x2A5A5A)
			if Slot(v) != slot {
				t.Fatalf("Slot(Pack(%d,%d,·)) = %d", label, slot, Slot(v))
			}
			if v&3 != label {
				t.Fatalf("label bits of Pack(%d,%d,·) = %d", label, slot, v&3)
			}
		}
	}
	if Pack(1, 3, tokenMask+5) != Pack(1, 3, 4) {
		t.Fatal("token not masked to tokenBits")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := baseCfg().Validate(); err != nil {
		t.Fatalf("defaults: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.BufferLimit = -1 },
		func(c *Config) { c.RoundTrip = -1 },
	}
	for i, mut := range bad {
		cfg := baseCfg()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted invalid config", i)
		}
	}
}

func TestCleanChannelExactlyOnce(t *testing.T) {
	sc := newScenario(baseCfg(), basePipe(), 1)
	sc.enqueueAll(200, 512)
	sc.sched.RunUntil(sim.Time(20 * int64(sim.Second)))
	sc.assertExactlyOnce(t, 200)
	if sc.pair.Metrics().DupSuppressed.Value() != 0 {
		t.Fatalf("clean channel produced %d duplicate suppressions", sc.pair.Metrics().DupSuppressed.Value())
	}
}

func TestLossyChannelExactlyOnce(t *testing.T) {
	pipe := basePipe()
	pipe.IModel = channel.FixedProb{P: 0.2}
	pipe.CModel = channel.FixedProb{P: 0.2}
	sc := newScenario(baseCfg(), pipe, 7)
	sc.enqueueAll(100, 256)
	sc.sched.RunUntil(sim.Time(60 * int64(sim.Second)))
	sc.assertExactlyOnce(t, 100)
	if sc.pair.Metrics().Retransmissions.Value() == 0 {
		t.Fatal("20% loss produced zero retransmissions")
	}
}

// TestConvergenceFromScrambledState is the self-stabilization property
// test: from ANY starting state — here, CorruptState applied repeatedly
// with per-seed randomness while traffic flows — the engine must return to
// exactly-once delivery for everything submitted after the corruption era,
// within ConvergenceBound. The assertion is deliberately the Dolev claim,
// not strict reliability: in-era datagrams may be casualties (bounded by
// the era), post-era datagrams may not.
func TestConvergenceFromScrambledState(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := baseCfg()
		pipe := basePipe()
		pipe.IModel = channel.FixedProb{P: 0.05}
		pipe.CModel = channel.FixedProb{P: 0.05}
		sc := newScenario(cfg, pipe, seed)
		rng := sim.NewRNG(seed ^ 0xC0FFEE)

		// Era 1: submit traffic while scrambling both ends every 5 ms.
		const eraDatagrams = 60
		for i := 0; i < eraDatagrams; i++ {
			at := sim.Time(int64(i) * int64(5*sim.Millisecond))
			sc.sched.Schedule(at, func() {
				cfg.CorruptState(sc.pair.Pair, rng)
				sc.pair.Enqueue(arq.Datagram{ID: uint64(i + 1), Payload: make([]byte, 128), EnqueuedAt: sc.sched.Now()})
			})
		}
		eraEnd := sim.Time(int64(eraDatagrams) * int64(5*sim.Millisecond))
		sc.sched.RunUntil(eraEnd)

		// Convergence window: run the clock past the bound with no new
		// corruption so in-flight repair completes.
		deadline := eraEnd.Add(cfg.ConvergenceBound())
		sc.sched.RunUntil(deadline)

		// Era 2: post-corruption traffic must be delivered exactly once.
		postStart := uint64(1000)
		const postDatagrams = 100
		for i := 0; i < postDatagrams; i++ {
			at := deadline.Add(sim.Duration(int64(i) * int64(2*sim.Millisecond)))
			sc.sched.Schedule(at, func() {
				sc.pair.Enqueue(arq.Datagram{ID: postStart + uint64(i), Payload: make([]byte, 128), EnqueuedAt: sc.sched.Now()})
			})
		}
		sc.sched.RunUntil(deadline.Add(sim.Duration(30 * int64(sim.Second))))

		for i := 0; i < postDatagrams; i++ {
			id := postStart + uint64(i)
			if sc.got[id] != 1 {
				t.Fatalf("seed %d: post-era datagram %d delivered %d times, want exactly once", seed, id, sc.got[id])
			}
		}
		// In-era casualties are allowed but must be bounded linearly in
		// the number of corruption events: each scramble of a receiver
		// slot can cause at most one spurious re-delivery before the
		// slot's value re-stabilizes, so total excess deliveries are
		// capped by scrambles × slots hit per scramble (~Lanes/3 each).
		excess := 0
		for i := 1; i <= eraDatagrams; i++ {
			if n := sc.got[uint64(i)]; n > 1 {
				excess += n - 1
			}
		}
		if cap := eraDatagrams * Lanes / 3; excess > cap {
			t.Fatalf("seed %d: %d excess in-era deliveries, casualty bound is %d", seed, excess, cap)
		}
	}
}

// TestGhostFloodHarmlessAfterConvergence drives ForgeGhost output into
// both ends of a converged pair and asserts fresh traffic still flows
// exactly once: forged frames are the adversary's, so any casualty they
// cause must stay confined to the flood era.
func TestGhostFloodHarmlessAfterConvergence(t *testing.T) {
	cfg := baseCfg()
	sc := newScenario(cfg, basePipe(), 3)
	rng := sim.NewRNG(99)

	// Flood era: 200 forged frames in both directions while 40 real
	// datagrams flow.
	for i := 0; i < 40; i++ {
		at := sim.Time(int64(i) * int64(3*sim.Millisecond))
		sc.sched.Schedule(at, func() {
			sc.pair.Enqueue(arq.Datagram{ID: uint64(i + 1), Payload: make([]byte, 128), EnqueuedAt: sc.sched.Now()})
		})
	}
	for i := 0; i < 200; i++ {
		at := sim.Time(int64(i) * int64(600*sim.Microsecond))
		sc.sched.Schedule(at, func() {
			if f := cfg.ForgeGhost(sc.pair.Pair, rng, true); f != nil {
				sc.pair.Link().AtoB.Send(f)
			}
			if f := cfg.ForgeGhost(sc.pair.Pair, rng, false); f != nil {
				sc.pair.Link().BtoA.Send(f)
			}
		})
	}
	floodEnd := sim.Time(int64(200) * int64(600*sim.Microsecond))
	deadline := floodEnd.Add(cfg.ConvergenceBound())
	sc.sched.RunUntil(deadline)

	for i := 0; i < 50; i++ {
		at := deadline.Add(sim.Duration(int64(i) * int64(2*sim.Millisecond)))
		sc.sched.Schedule(at, func() {
			sc.pair.Enqueue(arq.Datagram{ID: 2000 + uint64(i), Payload: make([]byte, 128), EnqueuedAt: sc.sched.Now()})
		})
	}
	sc.sched.RunUntil(deadline.Add(sim.Duration(10 * int64(sim.Second))))

	for i := 0; i < 50; i++ {
		if n := sc.got[2000+uint64(i)]; n != 1 {
			t.Fatalf("post-flood datagram %d delivered %d times, want exactly once", 2000+i, n)
		}
	}
}

func TestReclaimOldestFirst(t *testing.T) {
	// Lanes+6 datagrams: every lane busy and six queued behind them, so
	// Reclaim returns both halves in order.
	const n = Lanes + 6
	sc := newScenario(baseCfg(), basePipe(), 5)
	sc.enqueueAll(n, 64)
	// Stop before anything can be acknowledged (ack needs a full round trip).
	sc.sched.RunUntil(sim.Time(int64(time5ms())))
	sc.pair.Stop()
	held := sc.pair.Reclaim()
	if len(held) != n {
		t.Fatalf("Reclaim returned %d datagrams, want %d", len(held), n)
	}
	for i, dg := range held {
		if dg.ID != uint64(i+1) {
			t.Fatalf("Reclaim[%d].ID = %d: not oldest-first", i, dg.ID)
		}
	}
	if sc.pair.Enqueue(arq.Datagram{ID: 99}) {
		t.Fatal("Enqueue accepted after Stop")
	}
}

func time5ms() sim.Duration { return 5 * sim.Millisecond }

func TestBufferLimitRefusal(t *testing.T) {
	cfg := baseCfg()
	cfg.BufferLimit = 4
	sc := newScenario(cfg, basePipe(), 2)
	for i := 0; i < 4; i++ {
		if !sc.pair.Enqueue(arq.Datagram{ID: uint64(i + 1), Payload: make([]byte, 32)}) {
			t.Fatalf("enqueue %d refused below limit", i)
		}
	}
	if sc.pair.Enqueue(arq.Datagram{ID: 5, Payload: make([]byte, 32)}) {
		t.Fatal("enqueue accepted above BufferLimit")
	}
	if sc.pair.Outstanding() != 4 {
		t.Fatalf("Outstanding = %d, want 4", sc.pair.Outstanding())
	}
}
