package shard

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/channel"
	_ "repro/internal/engines"
	"repro/internal/orbit"
	"repro/internal/sim"
)

// smallConfig is a 64-satellite scenario scaled down enough for unit tests
// and the race-enabled smoke target.
func smallConfig() Config {
	cfg := DefaultConfig(WalkerGrid(64))
	cfg.Flows = 8
	cfg.DatagramsPerFlow = 10
	cfg.Horizon = 5 * sim.Second
	return cfg
}

func TestConstellationSmoke(t *testing.T) {
	cfg := smallConfig()
	cfg.Shards = 2
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Offered == 0 || r.Delivered != r.Offered {
		t.Fatalf("delivered %d of %d offered", r.Delivered, r.Offered)
	}
	if r.Unroutable != 0 {
		t.Fatalf("%d unroutable flows in a connected grid", r.Unroutable)
	}
	if r.DelayP50 <= 0 || r.DelayMax < r.DelayP95 || r.DelayP95 < r.DelayP50 {
		t.Fatalf("implausible delay stats: p50=%v p95=%v max=%v", r.DelayP50, r.DelayP95, r.DelayMax)
	}
	if r.Events == 0 || r.Rounds == 0 {
		t.Fatalf("empty run: events=%d rounds=%d", r.Events, r.Rounds)
	}
	if strings.Contains(r.Render(), "shard") {
		t.Fatalf("Render leaks shard count:\n%s", r.Render())
	}
}

// TestConstellationShardInvariance is the determinism pin the engine's
// whole design serves: the full E19-style report — delivery counts, delay
// percentiles, frame totals, executed-event count — must be byte-identical
// whether the constellation runs on one shard or eight. Same style as the
// worker-count pins in internal/bench.
func TestConstellationShardInvariance(t *testing.T) {
	cfg := smallConfig()
	cfg.Shards = 1
	one, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 8
	eight, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if one.Render() != eight.Render() {
		t.Fatalf("report differs between 1 and 8 shards:\n--- shards=1\n%s--- shards=8\n%s",
			one.Render(), eight.Render())
	}
	if one.Events != eight.Events {
		t.Fatalf("executed events differ: %d vs %d", one.Events, eight.Events)
	}
}

// TestConstellationEveryProto runs the small scenario over each registered
// split-capable engine: the sharded path must uphold the same exactly-once
// delivery contract for the HDLC baselines as for LAMS-DLC.
func TestConstellationEveryProto(t *testing.T) {
	for _, proto := range []string{"lams", "srhdlc", "gbn"} {
		cfg := smallConfig()
		cfg.Proto = proto
		cfg.Shards = 4
		cfg.Flows = 4
		cfg.DatagramsPerFlow = 5
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if r.Delivered != r.Offered || r.Offered == 0 {
			t.Fatalf("%s: delivered %d of %d", proto, r.Delivered, r.Offered)
		}
	}
}

// TestConstellationAllocBudget holds the run phase of the 1,024-satellite
// scenario (BenchmarkConstellation1024's) to 0.004 allocations per event at
// one shard and at two, counted on the second and third constellation of each
// leg, i.e. on the run memory the one before donated. At K = 2 frames cross
// mailboxes and are re-homed at each drain, and each shard has its own
// mailbox and run memory, so a hand-over that holds at K = 1 can still leak
// there. History at K = 1: 0.30 before the hop-to-hop path stopped copying
// packets, 0.13–0.14 while sync.Pools refilled at the collector's whim, 0.041
// once events, frames and entries came from the run memory, and below 0.0001
// (≈ 20 objects a run; K = 2 ≈ 60) since every buffer a run grows does too
// and the end of the run hands them all back (0.0373 and 0.0395 before). A
// cold first run reads ≈ 0.1. The budget leaves headroom for frames whose NAK
// lists outgrow what earlier runs left them, not for losing a hand-over. Build
// is logged beside it, so that an allocation moved out of the run into Build
// shows. A ratio counted in one process, it is machine-independent.
func TestConstellationAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1,024-satellite scenario skipped in -short mode")
	}
	const budget = 0.004
	for _, k := range []int{1, 2} {
		cfg := DefaultConfig(WalkerGrid(1024))
		cfg.Seed = 7
		cfg.DatagramsPerFlow = 20
		cfg.Shards = k
		var allocs, builds, events uint64
		for i := 0; i < 3; i++ {
			var m0, m1, m2 runtime.MemStats
			runtime.ReadMemStats(&m0)
			c, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			rep := c.Run()
			runtime.ReadMemStats(&m2)
			if rep.Delivered != rep.Offered || rep.Mismatched != 0 {
				t.Fatalf("K=%d run %d delivered %d of %d offered, %d not as offered", k, i+1, rep.Delivered, rep.Offered, rep.Mismatched)
			}
			if i > 0 {
				builds += m1.Mallocs - m0.Mallocs
				allocs += m2.Mallocs - m1.Mallocs
				events += rep.Events
			}
		}
		perEvent := float64(allocs) / float64(events)
		t.Logf("K=%d: warm constellation runs allocate %.5f objects per event (budget %.3f), %d per run; Build allocates %d per constellation",
			k, perEvent, budget, allocs/2, builds/2)
		if perEvent > budget {
			t.Errorf("K=%d: warm constellation runs allocate %.5f objects per event, budget %.3f", k, perEvent, budget)
		}
	}
}

// holdDepot adopts every run memory resting in the depot, so that the next
// scheduler to start runs cold, and returns the function that donates them
// back.
func holdDepot() (release func()) {
	var held []*sim.Scheduler
	for i := 0; i < 32; i++ {
		s := sim.NewScheduler()
		s.ScheduleDetached(0, func() {})
		held = append(held, s)
	}
	return func() {
		for _, s := range held {
			s.Recycle()
		}
	}
}

// TestConstellationWarmReuseChangesNothing runs one seed cold and then again
// on the run memory that run donated, at one shard and at two: the reports
// must be byte-identical and every delivered payload equal to the offered
// pattern. A buffer handed back while still reachable — a packet slab, an
// entry, a resequencer — would alias a live packet of the warm run and show
// as a mismatch, a lost or duplicated delivery, or a different trajectory.
// 44 datagrams a flow leave each shard's last packet slab (61 packets) more
// than half full, so that a warm run which carved on into a slab it had also
// handed back can reach that slab again and overwrite live packets (at K = 2
// it does).
func TestConstellationWarmReuseChangesNothing(t *testing.T) {
	for _, k := range []int{1, 2} {
		cfg := smallConfig()
		cfg.Shards = k
		cfg.DatagramsPerFlow = 44
		release := holdDepot()
		run := func() (Report, uint64) {
			c, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			r := c.Run()
			runtime.ReadMemStats(&m1)
			return r, m1.Mallocs - m0.Mallocs
		}
		cold, coldAllocs := run()
		warm, warmAllocs := run()
		release()
		if cold.Render() != warm.Render() {
			t.Fatalf("K=%d: the warm run's report differs from the cold run's:\n%s--- vs ---\n%s", k, warm.Render(), cold.Render())
		}
		for _, r := range []Report{cold, warm} {
			if r.Mismatched != 0 || r.Delivered != r.Offered || r.Offered == 0 {
				t.Fatalf("K=%d: delivered %d of %d offered, %d not as offered", k, r.Delivered, r.Offered, r.Mismatched)
			}
		}
		if warmAllocs*10 > coldAllocs {
			t.Fatalf("K=%d: the warm run allocated %d objects against the cold run's %d: it did not run on the donated memory", k, warmAllocs, coldAllocs)
		}
	}
}

// TestWalkerGridValidate pins the preset shapes used by E19.
func TestWalkerGridValidate(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		w := WalkerGrid(n)
		if err := w.Validate(); err != nil {
			t.Fatalf("WalkerGrid(%d): %v", n, err)
		}
		if w.Total() != n {
			t.Fatalf("WalkerGrid(%d).Total() = %d", n, w.Total())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WalkerGrid(65) should panic")
		}
	}()
	WalkerGrid(65)
}

// TestConstellationEveryKEveryP runs the small scenario at K ∈ {1, 2, 3, 8}
// with GOMAXPROCS forced to 1 and to 2, and requires one report. Most of
// these runs have more shards than cores, which is where a barrier that
// spins instead of yielding shows: on one core a spinning waiter holds the
// only P until the runtime preempts it, ~10 ms a round, so the time bound
// below (ten times the one-shard run plus slack, loose enough for a loaded
// CI host and the race detector) fails by orders of magnitude, not by
// noise.
func TestConstellationEveryKEveryP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(k, p int) (string, time.Duration) {
		runtime.GOMAXPROCS(p)
		cfg := smallConfig()
		cfg.Shards = k
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		r := c.Run()
		return r.Render(), time.Since(start)
	}
	want, ref := run(1, 1)
	for _, p := range []int{1, 2} {
		for _, k := range []int{1, 2, 3, 8} {
			got, took := run(k, p)
			if got != want {
				t.Fatalf("K=%d GOMAXPROCS=%d: report differs from K=1:\n%s--- vs ---\n%s", k, p, got, want)
			}
			if limit := 10*ref + 500*time.Millisecond; took > limit {
				t.Fatalf("K=%d GOMAXPROCS=%d took %v; the one-shard run took %v", k, p, took, ref)
			}
		}
	}
}

// referenceRange is the crosslink range exactly as it was computed before
// orbits had a prepared form: every term, time-invariant or not, evaluated
// per call. It exists to be compared against.
func referenceRange(l orbit.Link, t time.Duration) float64 {
	position := func(o orbit.Orbit) orbit.Vec3 {
		u := o.PhaseRad + o.MeanMotion()*t.Seconds()
		r := o.Radius()
		cosU, sinU := math.Cos(u), math.Sin(u)
		cosI, sinI := math.Cos(o.InclinationRad), math.Sin(o.InclinationRad)
		cosO, sinO := math.Cos(o.RAANRad), math.Sin(o.RAANRad)
		x := r * (cosO*cosU - sinO*sinU*cosI)
		y := r * (sinO*cosU + cosO*sinU*cosI)
		z := r * (sinU * sinI)
		return orbit.Vec3{X: x, Y: y, Z: z}
	}
	return position(l.B).Sub(position(l.A)).Norm()
}

// TestPreparedRangeBitIdentical pins the one arithmetic change on the
// propagation-delay path: over every adjacency of the 64-satellite grid and
// ten thousand seeded instants (plus t = 0 and the horizon), the prepared
// link's range, Link.RangeM and the pre-preparation expression are equal as
// floats — not close — and so are the delays the pipes are given.
func TestPreparedRangeBitIdentical(t *testing.T) {
	cfg := DefaultConfig(WalkerGrid(64))
	adjs := buildAdjacencies(cfg, cfg.Walker.Orbits())
	horizon := time.Duration(cfg.Horizon)
	times := []time.Duration{0, horizon}
	rng := sim.NewRNG(20260928)
	for i := 0; i < 10000; i++ {
		times = append(times, time.Duration(rng.Uint64()%uint64(horizon)))
	}
	for ai := range adjs {
		geom := adjs[ai].geom
		prepared := geom.Prepare()
		delay := channel.OrbitDelay(geom, 0)
		for _, at := range times {
			want := referenceRange(geom, at)
			if got := prepared.RangeM(at); got != want {
				t.Fatalf("adjacency %d t=%v: prepared range %v != %v", ai, at, got, want)
			}
			if got := geom.RangeM(at); got != want {
				t.Fatalf("adjacency %d t=%v: Link.RangeM %v != %v", ai, at, got, want)
			}
			if got := delay(sim.Time(at)); got != orbit.PropagationDelay(want) {
				t.Fatalf("adjacency %d t=%v: delay %v != %v", ai, at, got, orbit.PropagationDelay(want))
			}
		}
	}
}
