package ssarq

import (
	"testing"

	"repro/internal/arq"
	"repro/internal/arq/arqtest"
	"repro/internal/channel"
	"repro/internal/sim"
)

// scenario is the engine test kit's Scenario with this engine's halves typed.
type scenario = arqtest.Scenario[*Sender, *Receiver]

func newScenario(t *testing.T, cfg Config, o arqtest.Options) *scenario {
	t.Helper()
	return arqtest.New[*Sender, *Receiver](t, cfg, o)
}

func baseCfg() Config { return Defaults(arqtest.RoundTrip) }

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

func TestLossyChannelExactlyOnce(t *testing.T) {
	pipe := arqtest.Pipe()
	pipe.IModel = channel.FixedProb{P: 0.2}
	pipe.CModel = channel.FixedProb{P: 0.2}
	sc := newScenario(t, baseCfg(), arqtest.Options{Pipe: pipe, Seed: 7})
	sc.EnqueueAll(100, 256)
	sc.Sched.RunUntil(sim.Time(60 * int64(sim.Second)))
	sc.AssertExactlyOnce(100)
	if sc.Metrics().Retransmissions.Value() == 0 {
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
		pipe := arqtest.Pipe()
		pipe.IModel = channel.FixedProb{P: 0.05}
		pipe.CModel = channel.FixedProb{P: 0.05}
		sc := newScenario(t, cfg, arqtest.Options{Pipe: pipe, Seed: seed})
		rng := sim.NewRNG(seed ^ 0xC0FFEE)

		// Era 1: submit traffic while scrambling both ends every 5 ms.
		const eraDatagrams = 60
		for i := 0; i < eraDatagrams; i++ {
			at := sim.Time(int64(i) * int64(5*sim.Millisecond))
			sc.Sched.Schedule(at, func() {
				cfg.CorruptState(sc.Pair, rng)
				sc.Enqueue(arq.Datagram{ID: uint64(i + 1), Payload: make([]byte, 128), EnqueuedAt: sc.Sched.Now()})
			})
		}
		eraEnd := sim.Time(int64(eraDatagrams) * int64(5*sim.Millisecond))
		sc.Sched.RunUntil(eraEnd)

		// Convergence window: run the clock past the bound with no new
		// corruption so in-flight repair completes.
		deadline := eraEnd.Add(cfg.ConvergenceBound())
		sc.Sched.RunUntil(deadline)

		// Era 2: post-corruption traffic must be delivered exactly once.
		postStart := uint64(1000)
		const postDatagrams = 100
		for i := 0; i < postDatagrams; i++ {
			at := deadline.Add(sim.Duration(int64(i) * int64(2*sim.Millisecond)))
			sc.Sched.Schedule(at, func() {
				sc.Enqueue(arq.Datagram{ID: postStart + uint64(i), Payload: make([]byte, 128), EnqueuedAt: sc.Sched.Now()})
			})
		}
		sc.Sched.RunUntil(deadline.Add(sim.Duration(30 * int64(sim.Second))))

		for i := 0; i < postDatagrams; i++ {
			id := postStart + uint64(i)
			if sc.Got[id] != 1 {
				t.Fatalf("seed %d: post-era datagram %d delivered %d times, want exactly once", seed, id, sc.Got[id])
			}
		}
		// In-era casualties are allowed but must be bounded linearly in
		// the number of corruption events: each scramble of a receiver
		// slot can cause at most one spurious re-delivery before the
		// slot's value re-stabilizes, so total excess deliveries are
		// capped by scrambles × slots hit per scramble (~Lanes/3 each).
		excess := 0
		for i := 1; i <= eraDatagrams; i++ {
			if n := sc.Got[uint64(i)]; n > 1 {
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
	sc := newScenario(t, cfg, arqtest.Options{Seed: 3})
	rng := sim.NewRNG(99)

	// Flood era: 200 forged frames in both directions while 40 real
	// datagrams flow.
	for i := 0; i < 40; i++ {
		at := sim.Time(int64(i) * int64(3*sim.Millisecond))
		sc.Sched.Schedule(at, func() {
			sc.Enqueue(arq.Datagram{ID: uint64(i + 1), Payload: make([]byte, 128), EnqueuedAt: sc.Sched.Now()})
		})
	}
	for i := 0; i < 200; i++ {
		at := sim.Time(int64(i) * int64(600*sim.Microsecond))
		sc.Sched.Schedule(at, func() {
			if f := cfg.ForgeGhost(sc.Pair, rng, true); f != nil {
				sc.Link.AtoB.Send(f)
			}
			if f := cfg.ForgeGhost(sc.Pair, rng, false); f != nil {
				sc.Link.BtoA.Send(f)
			}
		})
	}
	floodEnd := sim.Time(int64(200) * int64(600*sim.Microsecond))
	deadline := floodEnd.Add(cfg.ConvergenceBound())
	sc.Sched.RunUntil(deadline)

	for i := 0; i < 50; i++ {
		at := deadline.Add(sim.Duration(int64(i) * int64(2*sim.Millisecond)))
		sc.Sched.Schedule(at, func() {
			sc.Enqueue(arq.Datagram{ID: 2000 + uint64(i), Payload: make([]byte, 128), EnqueuedAt: sc.Sched.Now()})
		})
	}
	sc.Sched.RunUntil(deadline.Add(sim.Duration(10 * int64(sim.Second))))

	for i := 0; i < 50; i++ {
		if n := sc.Got[2000+uint64(i)]; n != 1 {
			t.Fatalf("post-flood datagram %d delivered %d times, want exactly once", 2000+i, n)
		}
	}
}

func TestBufferLimitRefusal(t *testing.T) {
	cfg := baseCfg()
	cfg.BufferLimit = 4
	sc := newScenario(t, cfg, arqtest.Options{Seed: 2})
	for i := 0; i < 4; i++ {
		if !sc.Enqueue(arq.Datagram{ID: uint64(i), Payload: make([]byte, 32)}) {
			t.Fatalf("enqueue %d refused below limit", i)
		}
	}
	if sc.Enqueue(arq.Datagram{ID: 4, Payload: make([]byte, 32)}) {
		t.Fatal("enqueue accepted above BufferLimit")
	}
	if sc.Outstanding() != 4 {
		t.Fatalf("Outstanding = %d, want 4", sc.Outstanding())
	}
}
