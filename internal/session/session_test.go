package session

import (
	"testing"
	"time"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/lamsdlc"
	"repro/internal/orbit"
	"repro/internal/sim"
)

func testCfg() Config {
	p := lamsdlc.Defaults(13 * sim.Millisecond)
	p.CheckpointInterval = 5 * sim.Millisecond
	p.ProcTime = 10 * sim.Microsecond
	return Config{Engine: p, Retarget: 20 * sim.Millisecond}
}

func factory(sched *sim.Scheduler, rng *sim.RNG, pf float64) LinkFactory {
	return func(i int, p Pass) *channel.Link {
		return channel.NewLink(sched, channel.PipeConfig{
			RateBps: 100e6,
			Delay:   channel.ConstantDelay(6 * sim.Millisecond),
			IModel:  channel.FixedProb{P: pf},
			CModel:  channel.FixedProb{P: pf / 5},
		}, rng.Split())
	}
}

type collected struct {
	ids []uint64
}

func (c *collected) hook() func(sim.Time, arq.Datagram) {
	return func(_ sim.Time, dg arq.Datagram) { c.ids = append(c.ids, dg.ID) }
}

func (c *collected) exactlyOnceInOrder(t *testing.T, n int) {
	t.Helper()
	if len(c.ids) != n {
		t.Fatalf("delivered %d, want %d", len(c.ids), n)
	}
	for i, id := range c.ids {
		if id != uint64(i) {
			t.Fatalf("order broken at %d: id %d", i, id)
		}
	}
}

func TestSinglePassDeliversAll(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1)
	passes := []Pass{{Start: 0, End: sim.Time(2 * sim.Second)}}
	m := New(sched, testCfg(), passes, factory(sched, rng, 0.1))
	var got collected
	m.OnDeliver = got.hook()
	const n = 200
	for i := 0; i < n; i++ {
		m.Send(make([]byte, 512))
	}
	sched.RunFor(2 * sim.Second)
	got.exactlyOnceInOrder(t, n)
	if m.Stats.Passes.Value() != 1 {
		t.Fatalf("passes = %d", m.Stats.Passes.Value())
	}
}

func TestRetargetOverheadDelaysTraffic(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(2)
	cfg := testCfg()
	cfg.Retarget = 100 * sim.Millisecond
	passes := []Pass{{Start: 0, End: sim.Time(sim.Second)}}
	m := New(sched, cfg, passes, factory(sched, rng, 0))
	var got collected
	m.OnDeliver = got.hook()
	m.Send([]byte("x"))
	sched.RunFor(90 * sim.Millisecond)
	if len(got.ids) != 0 {
		t.Fatal("delivered during retargeting")
	}
	if m.cur != nil {
		t.Fatal("pass active during retargeting")
	}
	sched.RunFor(sim.Second)
	got.exactlyOnceInOrder(t, 1)
}

func TestHandoverCarriesUnfinishedTraffic(t *testing.T) {
	// A pass too short to finish the transfer; the remainder must cross
	// the gap to the second pass and still arrive exactly once, in order.
	sched := sim.NewScheduler()
	rng := sim.NewRNG(3)
	cfg := testCfg()
	cfg.Retarget = 10 * sim.Millisecond
	passes := []Pass{
		{Start: 0, End: sim.Time(60 * sim.Millisecond)}, // ~1 RTT of usable time
		{Start: sim.Time(500 * sim.Millisecond), End: sim.Time(5 * sim.Second)},
	}
	m := New(sched, cfg, passes, factory(sched, rng, 0.1))
	var got collected
	m.OnDeliver = got.hook()
	const n = 400
	for i := 0; i < n; i++ {
		m.Send(make([]byte, 512))
	}
	// After pass 1 some must have been carried over.
	sched.RunUntil(sim.Time(400 * sim.Millisecond))
	if m.Stats.CarriedOver.Value() == 0 {
		t.Fatal("nothing carried over from the truncated pass")
	}
	if m.cur != nil {
		t.Fatal("pass 1 still active in the gap")
	}
	sched.RunFor(10 * sim.Second)
	got.exactlyOnceInOrder(t, n)
	if m.Stats.Passes.Value() != 2 {
		t.Fatalf("passes = %d", m.Stats.Passes.Value())
	}
	if len(m.queue) != 0 {
		t.Fatalf("pending = %d after final pass", len(m.queue))
	}
}

func TestCrossPassDuplicatesSuppressed(t *testing.T) {
	// End a pass abruptly right after frames arrive but before the sender
	// sees their checkpoint: those datagrams are delivered in pass 1 AND
	// carried over and re-sent in pass 2. The application must see each
	// exactly once.
	sched := sim.NewScheduler()
	rng := sim.NewRNG(4)
	cfg := testCfg()
	cfg.Retarget = 1 * sim.Millisecond
	passes := []Pass{
		// Usable ~14ms: one-way flight 6ms, so frames land ~7–9ms in, but
		// the first covering checkpoint would only reach the sender at
		// ~17ms — after the beam is gone. Everything delivered in pass 1
		// is also carried into pass 2.
		{Start: 0, End: sim.Time(15 * sim.Millisecond)},
		{Start: sim.Time(100 * sim.Millisecond), End: sim.Time(3 * sim.Second)},
	}
	m := New(sched, cfg, passes, factory(sched, rng, 0))
	var got collected
	m.OnDeliver = got.hook()
	const n = 50
	for i := 0; i < n; i++ {
		m.Send(make([]byte, 256))
	}
	sched.RunFor(5 * sim.Second)
	got.exactlyOnceInOrder(t, n)
	if m.Stats.Duplicates.Value() == 0 {
		t.Fatal("expected cross-pass duplicates to be created and suppressed")
	}
}

func TestSendDuringActivePassGoesDirect(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(5)
	passes := []Pass{{Start: 0, End: sim.Time(2 * sim.Second)}}
	m := New(sched, testCfg(), passes, factory(sched, rng, 0))
	var got collected
	m.OnDeliver = got.hook()
	sched.RunFor(100 * sim.Millisecond) // pass active
	if m.cur == nil || m.curIdx != 0 {
		t.Fatal("pass should be active")
	}
	m.Send([]byte("direct"))
	if len(m.queue) != 0 {
		t.Fatal("datagram queued instead of entering the active pair")
	}
	sched.RunFor(sim.Second)
	got.exactlyOnceInOrder(t, 1)
}

func TestUnusablePassSkipped(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(6)
	cfg := testCfg()
	cfg.Retarget = 50 * sim.Millisecond
	passes := []Pass{
		{Start: 0, End: sim.Time(40 * sim.Millisecond)}, // shorter than retarget
		{Start: sim.Time(sim.Second), End: sim.Time(3 * sim.Second)},
	}
	m := New(sched, cfg, passes, factory(sched, rng, 0))
	var got collected
	m.OnDeliver = got.hook()
	m.Send([]byte("x"))
	sched.RunFor(500 * sim.Millisecond)
	if m.Stats.Passes.Value() != 0 {
		t.Fatal("unusable pass was started")
	}
	sched.RunFor(5 * sim.Second)
	got.exactlyOnceInOrder(t, 1)
}

func TestValidationPanics(t *testing.T) {
	sched := sim.NewScheduler()
	f := factory(sched, sim.NewRNG(7), 0)
	cases := map[string]func(){
		"bad protocol": func() {
			New(sched, Config{}, nil, f)
		},
		"negative retarget": func() {
			c := testCfg()
			c.Retarget = -1
			New(sched, c, nil, f)
		},
		"nil factory": func() {
			New(sched, testCfg(), nil, nil)
		},
		"degenerate pass": func() {
			New(sched, testCfg(), []Pass{{Start: 5, End: 5}}, f)
		},
		"overlapping passes": func() {
			New(sched, testCfg(), []Pass{{0, 10}, {5, 20}}, f)
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSummary(t *testing.T) {
	sched := sim.NewScheduler()
	m := New(sched, testCfg(), nil, factory(sched, sim.NewRNG(8), 0))
	if m.Summary() == "" {
		t.Fatal("summary")
	}
	if m.cur != nil {
		t.Fatal("no pass should be active")
	}
}

func TestSessionOverOrbitWindows(t *testing.T) {
	// End-to-end wiring with real geometry: take the first two visibility
	// windows of a crossing-plane pair, compress them 100x to keep the
	// event count testable, and push a transfer across the handover.
	ol := orbit.CrossPlanePair(1000e3, 60, 90, 0)
	windows := ol.Windows(3*ol.A.Period(), 10*time.Second)
	if len(windows) < 2 {
		t.Skip("fewer than two windows in horizon")
	}
	const compress = 100
	var passes []Pass
	for _, w := range windows[:2] {
		passes = append(passes, Pass{Start: sim.Time(w.Start / compress), End: sim.Time(w.End / compress)})
	}

	sched := sim.NewScheduler()
	rng := sim.NewRNG(9)
	cfg := testCfg()
	cfg.Retarget = 100 * sim.Millisecond
	m := New(sched, cfg, passes, func(i int, p Pass) *channel.Link {
		st := ol.Stats(windows[i], 10*time.Second)
		return channel.NewLink(sched, channel.PipeConfig{
			RateBps: 50e6,
			Delay:   channel.ConstantDelay(orbit.PropagationDelay(st.MidrangeM())),
			IModel:  channel.FixedProb{P: 0.05},
		}, rng.Split())
	})
	var got collected
	m.OnDeliver = got.hook()
	const n = 300
	for i := 0; i < n; i++ {
		m.Send(make([]byte, 512))
	}
	sched.RunUntil(passes[1].End)
	got.exactlyOnceInOrder(t, n)
}
