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
