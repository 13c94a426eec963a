package faults_test

import (
	"reflect"
	"testing"

	"repro/internal/arq"
	"repro/internal/bench"
	_ "repro/internal/engines" // the matrix sweeps the full registry, ssarq included
	"repro/internal/faults"
	"repro/internal/sim"
)

// --- Corruption matrix (ISSUE 9) --------------------------------------------

// stabConfig mirrors E20's geometry at reduced scale: the corruption era
// (100ms–500ms) covers the whole arrival span, N2 supervision is armed so a
// wedged HDLC link declares instead of hanging, and the checker runs with
// the convergence rule installed (bench wires it whenever the schedule
// carries a corruption window).
func stabConfig(t *testing.T, proto, spec string, seed uint64) bench.RunConfig {
	t.Helper()
	s, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	c := bench.Base()
	c.Protocol = bench.Protocol(proto)
	c.N = 600
	c.OfferInterval = 500 * sim.Microsecond
	c.Horizon = 5 * sim.Second
	c.N2 = 16
	c.Seed = seed
	c.Faults = s
	c.CheckInvariants = true
	return c
}

const stabAllSpec = "scramble@100ms+400ms:period=10ms; ghost@100ms+400ms:period=2ms; reorder@100ms+400ms:jitter=2ms"

// TestStabMatrix is the state-corruption acceptance gate: scramble, ghost,
// and reorder adversaries against every registry engine at seeds 1–5. The
// contract is per-engine. SS-ARQ self-stabilizes: zero violations AND zero
// failure declarations — it must converge from any state the adversary
// leaves it in. The legacy engines hold the bounded contract: corruption-era
// casualties are excused by the checker's convergence rule, a post-era N2
// failure declaration is legitimate triage (DESIGN.md §13), but an unexcused
// §3.2 violation — silent loss, unexplained duplicate, a wedged link that
// never declares — fails the matrix for any engine. Every engine must also
// have been struck: the kind's counter moved, or the adversary silently
// found no surface to act on.
func TestStabMatrix(t *testing.T) {
	kinds := []struct{ name, spec, counter string }{
		{"scramble", "scramble@100ms+400ms:period=10ms", "lams_fault_corrupt_scrambles_total"},
		{"ghost", "ghost@100ms+400ms:period=2ms", "lams_fault_corrupt_ghosts_total"},
		{"reorder", "reorder@100ms+400ms:jitter=2ms", "lams_fault_corrupt_reordered_total"},
	}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.name, func(t *testing.T) {
			// One batch per kind keeps the worker pool busy across the
			// engine×seed grid instead of running 20 sims serially.
			var cfgs []bench.RunConfig
			for _, eng := range arq.Protocols() {
				for seed := uint64(1); seed <= 5; seed++ {
					cfgs = append(cfgs, stabConfig(t, eng, kind.spec, seed))
				}
			}
			results := bench.RunMany(cfgs)
			for i, res := range results {
				eng, seed := cfgs[i].Protocol, cfgs[i].Seed
				for _, v := range res.Violations {
					t.Errorf("%s seed %d: %s", eng, seed, v)
				}
				if res.Snapshot.Counter(kind.counter) == 0 {
					t.Errorf("%s seed %d: %s stayed 0: the episode did nothing", eng, seed, kind.counter)
				}
				if eng == "ssarq" && res.Failures != 0 {
					t.Errorf("ssarq seed %d: declared failure %d times; a self-stabilizing engine converges instead",
						seed, res.Failures)
				}
				// A legacy engine may declare failure (bounded triage), but a
				// run that neither finished nor declared is a silent wedge.
				if res.Failures == 0 && res.Delivered == 0 {
					t.Errorf("%s seed %d: delivered nothing and declared nothing", eng, seed)
				}
			}
		})
	}
}

// TestStabDeterminismAcrossWorkers extends the workers-1-vs-8 byte-identical
// pin to the corruption path: the combined scramble+ghost+reorder schedule
// against every engine at seeds 1–5. State corruption draws from the
// injector's own RNG split and poisons state at derived (non-map-order)
// keys, so the full RunResult — violations, excused breaches, convergence
// time, metrics snapshot — must be independent of worker count.
func TestStabDeterminismAcrossWorkers(t *testing.T) {
	var cfgs []bench.RunConfig
	for _, eng := range arq.Protocols() {
		for seed := uint64(1); seed <= 5; seed++ {
			cfgs = append(cfgs, stabConfig(t, eng, stabAllSpec, seed))
		}
	}
	var serial, parallel []bench.RunResult
	bench.SetWorkers(1)
	serial = bench.RunMany(cfgs)
	bench.SetWorkers(8)
	parallel = bench.RunMany(cfgs)
	bench.SetWorkers(0)
	if !reflect.DeepEqual(serial, parallel) {
		for i := range serial {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Errorf("%s seed %d: corrupted run differs across worker counts",
					cfgs[i].Protocol, cfgs[i].Seed)
			}
		}
		t.Fatal("corrupted runs are not byte-identical at 1 and 8 workers")
	}
}
