package faults_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/arq"
	"repro/internal/bench"
	"repro/internal/channel"
	"repro/internal/faults"
	"repro/internal/lamsdlc"
	"repro/internal/sim"
)

// --- Spec grammar -----------------------------------------------------------

func TestParseSpecGrammar(t *testing.T) {
	spec, err := faults.ParseSpec(
		"half@2s+500ms:dir=ab; outage@1s+100ms; storm@4s+200ms:period=2ms,naks=4,serial=7,enforced=true; " +
			"burst@5s+1s:len=2ms,gap=8ms,dir=ba; skew@6s:factor=2.5; handover@8s")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Events) != 6 {
		t.Fatalf("parsed %d events, want 6", len(spec.Events))
	}
	// Sorted by start.
	if spec.Events[0].Kind != faults.Outage || spec.Events[0].Start != sim.Duration(sim.Second) {
		t.Fatalf("events not sorted by start: first = %+v", spec.Events[0])
	}
	half := spec.Events[1]
	if half.Kind != faults.HalfDuplex || half.Dir != faults.AtoB || half.Dur != 500*sim.Millisecond {
		t.Fatalf("half event = %+v", half)
	}
	storm := spec.Events[2]
	if storm.Period != 2*sim.Millisecond || storm.NAKs != 4 || storm.Serial != 7 || !storm.Enforced {
		t.Fatalf("storm event = %+v", storm)
	}
	if spec.Events[4].Factor != 2.5 || spec.Events[4].Dur != sim.Second {
		t.Fatalf("skew defaults wrong: %+v", spec.Events[4])
	}
	if spec.Events[5].Dur != 30*sim.Millisecond {
		t.Fatalf("handover default duration = %v, want 30ms", spec.Events[5].Dur)
	}
	var end sim.Duration
	for _, e := range spec.Events {
		end = max(end, e.End())
	}
	if end != 8*sim.Second+30*sim.Millisecond {
		t.Fatalf("the last episode ends at %v", end)
	}

	// String round-trips through the parser.
	again, err := faults.ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("round-trip parse of %q: %v", spec.String(), err)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("round trip changed the spec:\n%q\n%q", spec.String(), again.String())
	}
}

func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"nonsense@1s",               // unknown kind
		"outage",                    // missing @start
		"outage@-1s",                // negative start
		"outage@1s+0s",              // non-positive duration
		"half@1s:dir=both",          // half needs a single direction
		"half@1s:dir=sideways",      // unknown direction
		"storm@1s:period=0s",        // non-positive period
		"storm@1s:naks=-1",          // negative NAK count
		"skew@1s:factor=0",          // non-positive factor
		"outage@1s:factor=2",        // parameter on wrong kind
		"burst@1s:len=1ms,gap=oops", // unparsable duration
		"storm@1s:period",           // parameter without '='
		"outage@banana",             // unparsable start
		// Hardening (ISSUE 9): repeated keys and overlapping same-kind
		// episodes are mis-edited schedules, rejected outright.
		"storm@1s:period=2ms,period=3ms",       // duplicate parameter key
		"ghost@1s:dir=ba,dir=ab",               // duplicate key, different values
		"outage@1s+2s; outage@2s+500ms",        // overlapping same-kind windows
		"half@1s+2s:dir=ab; half@2s+2s:dir=ab", // overlapping, same direction
		"ghost@1s+1s; ghost@1500ms+1s:dir=ab",  // dir=both contends with ab
		"scramble@1s:period=0s",                // non-positive corruption period
		"reorder@1s:jitter=0s",                 // non-positive reorder jitter
		"scramble@1s:jitter=1ms",               // parameter on wrong kind
		"reorder@1s:period=1ms",                // parameter on wrong kind
		// Numbers that are not numbers and the empty direction (ISSUE 24):
		// each of these parsed.
		"skew@1s:factor=NaN",  // would re-time the checkpoint ticker to 1ns
		"skew@1s:factor=+Inf", // non-finite factor
		"skew@1s:factor=-Inf", // non-finite factor
		"storm@1s:dir=",       // the empty direction used to mean both
		"outage@1s:dir=ab",    // dir on a kind without a direction selector
		"storm@1s:serial=-1",  // serial is a uint32
	}
	for _, text := range bad {
		if _, err := faults.ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted", text)
		}
	}
}

// TestParseSpecSpellings: kind keywords are case insensitive like the other
// three name tables, an unknown one lists the nine that exist, and a storm
// told dir=both renders it — left out, the round trip read the default, ba.
func TestParseSpecSpellings(t *testing.T) {
	spec, err := faults.ParseSpec(" Storm@1s:dir=both ; HANDOVER@2s")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spec.String(), "storm@1s+100ms:dir=both,period=1ms,naks=0; handover@2s+30ms"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	again, err := faults.ParseSpec(spec.String())
	if err != nil || !reflect.DeepEqual(spec, again) {
		t.Fatalf("round trip of %q: %v, %v", spec, again, err)
	}
	_, err = faults.ParseSpec("nonsense@1s")
	want := `faults: unknown kind "nonsense" (registered: burst, ghost, half, handover, outage, reorder, scramble, skew, storm)`
	if err == nil || err.Error() != want {
		t.Fatalf("unknown-kind error = %v, want %s", err, want)
	}
}

// FuzzParseSpec: no schedule panics the parser, and an accepted one renders
// to a schedule that parses back to the same value (ROADMAP item 3; `make
// specsmoke` runs it for ten seconds). Seeds are the accept and reject tables
// above.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"half@2s+500ms:dir=ab; outage@1s+100ms; storm@4s+200ms:period=2ms,naks=4,serial=7,enforced=true; " +
			"burst@5s+1s:len=2ms,gap=8ms,dir=ba; skew@6s:factor=2.5; handover@8s",
		stabAllSpec, comboSpec, "ghost@1s+1s; ghost@2s+1s", "reorder@1s+2s:dir=ab; reorder@2s+2s:dir=ba",
		"Storm@1s:dir=both", "burst@0:gap=0s,len=1ns", "skew@1s:factor=0x1p-2", "", " ; ;",
		"nonsense@1s", "outage", "outage@-1s", "outage@1s+0s", "half@1s:dir=both", "storm@1s:naks=-1",
		"skew@1s:factor=NaN", "storm@1s:dir=", "storm@1s:period", "storm@1s:period=2ms,period=3ms",
		"outage@1s+2s; outage@2s+500ms", "outage@banana", "outage@9223372036s+9223372036s", "x@1s:%d=%s",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := faults.ParseSpec(text)
		if err != nil {
			return
		}
		again, err := faults.ParseSpec(spec.String())
		if err != nil || !reflect.DeepEqual(spec, again) {
			t.Fatalf("ParseSpec(%q) accepted, but its String() %q parses back as %v, %v", text, spec, again, err)
		}
	})
}

// TestParseSpecCorruptionGrammar pins the state-corruption kinds' defaults
// and the overlap rule's legitimate edges: half-open windows that merely
// touch, and same-kind episodes on disjoint directions.
func TestParseSpecCorruptionGrammar(t *testing.T) {
	spec, err := faults.ParseSpec(
		"scramble@100ms+400ms; ghost@100ms+400ms:period=2ms,dir=ab; reorder@100ms+400ms:jitter=2ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Events) != 3 {
		t.Fatalf("parsed %d events, want 3", len(spec.Events))
	}
	sc, gh, re := spec.Events[0], spec.Events[1], spec.Events[2]
	if sc.Kind != faults.Scramble || sc.Period != 10*sim.Millisecond {
		t.Fatalf("scramble defaults wrong: %+v", sc)
	}
	if gh.Kind != faults.Ghost || gh.Period != 2*sim.Millisecond || gh.Dir != faults.AtoB {
		t.Fatalf("ghost event wrong: %+v", gh)
	}
	if re.Kind != faults.Reorder || re.Jitter != 2*sim.Millisecond || re.Dir != faults.Both {
		t.Fatalf("reorder event wrong: %+v", re)
	}
	for _, e := range spec.Events {
		if !e.Kind.Corruption() {
			t.Fatalf("%s should classify as a corruption kind", e.Kind)
		}
	}
	start, end, ok := spec.CorruptionWindow()
	if !ok || start != 100*sim.Millisecond || end != 500*sim.Millisecond {
		t.Fatalf("CorruptionWindow() = %v, %v, %v", start, end, ok)
	}

	// String round-trips through the parser.
	again, err := faults.ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("round-trip parse of %q: %v", spec.String(), err)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("round trip changed the spec:\n%q\n%q", spec.String(), again.String())
	}

	// Merely-touching windows and direction-disjoint episodes are legal.
	for _, text := range []string{
		"ghost@1s+1s; ghost@2s+1s",                   // half-open windows touch, no overlap
		"reorder@1s+2s:dir=ab; reorder@2s+2s:dir=ba", // same window, opposite beams
	} {
		if _, err := faults.ParseSpec(text); err != nil {
			t.Errorf("ParseSpec(%q) rejected: %v", text, err)
		}
	}
}

// --- Fault matrix -----------------------------------------------------------

// comboSpec chains a checkpoint blackout, a stale-NAK storm, burst loss, a
// handover cut-over, and a clock-skew window into one schedule.
const comboSpec = "half@150ms+60ms:dir=ba; storm@300ms+100ms:period=2ms,naks=4,serial=1; " +
	"burst@450ms+150ms:len=1ms,gap=6ms; handover@700ms; skew@800ms+200ms:factor=6"

func matrixConfig(t *testing.T, spec string, seed uint64) bench.RunConfig {
	t.Helper()
	s, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	return bench.RunConfig{
		Protocol:        bench.LAMS,
		N:               120,
		PayloadBytes:    512,
		OfferInterval:   8 * sim.Millisecond,
		RateBps:         10e6,
		OneWay:          10 * sim.Millisecond,
		Icp:             10 * sim.Millisecond,
		Cdepth:          3,
		W:               64,                   // SR-HDLC rows; LAMS-DLC ignores it
		Alpha:           10 * sim.Millisecond, // likewise
		Tproc:           10 * sim.Microsecond,
		Seed:            seed,
		Horizon:         6 * sim.Second,
		Faults:          s,
		CheckInvariants: true,
	}
}

// The fault counters a matrix row asserts on: an episode that silently did
// nothing leaves its kind's counter at 0.
const (
	transitions = "lams_fault_link_transitions_total"
	injected    = "lams_fault_frames_injected_total"
	burstHits   = "lams_fault_burst_corrupted_total"
	skews       = "lams_fault_skew_windows_total"
)

// TestFaultMatrix is the standing acceptance gate: the §3.2 invariant
// checker must hold over every fault class at seeds 1–5. Schedules that end
// inside the failure window legitimately declare link failure (the paper's
// behavior); everything else must deliver every datagram. Every row's kind
// must also have acted: its counter moved (true), or, for a kind the engine
// has no surface for, stayed at 0 (false) — SR-HDLC has no checkpoint
// process to retime, so its skew windows are skipped.
func TestFaultMatrix(t *testing.T) {
	cases := []struct {
		name       string
		proto      bench.Protocol // "" is LAMS-DLC
		spec       string
		expectFail bool // schedule outlives the failure window by design
		counters   map[string]bool
	}{
		{"outage-recover", "", "outage@200ms+60ms", false, map[string]bool{transitions: true}},
		{"outage-fail", "", "outage@200ms+400ms", true, map[string]bool{transitions: true}},
		{"blackout-ba", "", "half@200ms+60ms:dir=ba", false, map[string]bool{transitions: true}},
		{"blackout-ba-fail", "", "half@200ms+400ms:dir=ba", true, map[string]bool{transitions: true}},
		{"iframe-ab", "", "half@200ms+300ms:dir=ab", false, map[string]bool{transitions: true}},
		{"storm-checkpoint", "", "storm@150ms+200ms:period=2ms,naks=6,serial=1", false, map[string]bool{injected: true}},
		{"storm-reqnak", "", "storm@150ms+100ms:period=3ms,dir=ab", false, map[string]bool{injected: true}},
		{"burst", "", "burst@150ms+200ms:len=2ms,gap=5ms", false, map[string]bool{burstHits: true}},
		// A 2ms+8ms burst cycle phase-locks with the 10ms checkpoint
		// cadence: every checkpoint is corrupted for 200ms, a full silence
		// window passes, and declaring failure is the correct §3.2 outcome.
		{"burst-jam", "", "burst@150ms+200ms:len=2ms,gap=8ms", true, map[string]bool{burstHits: true}},
		{"skew", "", "skew@150ms+300ms:factor=6", false, map[string]bool{skews: true}},
		{"skew-srhdlc", bench.SRHDLC, "skew@150ms+300ms:factor=6", false, map[string]bool{skews: false}},
		{"handover", "", "handover@250ms", false, map[string]bool{transitions: true}},
		{"combo", "", comboSpec, false, map[string]bool{transitions: true, injected: true, burstHits: true, skews: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				c := matrixConfig(t, tc.spec, seed)
				if tc.proto != "" {
					c.Protocol = tc.proto
				}
				res := bench.Run(c)
				for _, v := range res.Violations {
					t.Errorf("seed %d: %s", seed, v)
				}
				for name, moves := range tc.counters {
					if n := res.Snapshot.Counter(name); (n > 0) != moves {
						want := "0"
						if moves {
							want = "> 0"
						}
						t.Errorf("seed %d: %s = %d, want %s", seed, name, n, want)
					}
				}
				if tc.expectFail {
					if res.Failures == 0 {
						t.Errorf("seed %d: schedule should have declared link failure", seed)
					}
					continue
				}
				if res.Failures != 0 {
					t.Errorf("seed %d: spurious link failure", seed)
				}
				if res.Lost != 0 {
					t.Errorf("seed %d: lost %d datagrams", seed, res.Lost)
				}
			}
		})
	}
}

// TestFaultDeterminismAcrossWorkers pins the injection path's determinism
// contract: a faulted, checked batch is byte-identical at 1 and 8 workers.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	var cfgs []bench.RunConfig
	for seed := uint64(1); seed <= 5; seed++ {
		cfgs = append(cfgs, matrixConfig(t, comboSpec, seed))
	}
	var serial, parallel []bench.RunResult
	bench.SetWorkers(1)
	serial = bench.RunMany(cfgs)
	bench.SetWorkers(8)
	parallel = bench.RunMany(cfgs)
	bench.SetWorkers(0)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("faulted runs differ across worker counts")
	}
	for i := range serial {
		if len(serial[i].Violations) != 0 {
			t.Fatalf("seed %d: violations: %v", cfgs[i].Seed, serial[i].Violations)
		}
	}
}

// TestFaultDeterminismWithPoolReuse extends the worker-count pin to the
// pooled hot path (ISSUE 6): the batch interleaves three fault schedules and
// then repeats the whole block, so every config runs again on a worker whose
// arenas, entry pools, and event pools are warm from a *different*
// predecessor. Any state leaking through a pool shows up as a mismatch
// between a config's first and second execution, or between worker counts.
func TestFaultDeterminismWithPoolReuse(t *testing.T) {
	specs := []string{
		comboSpec,
		"burst@150ms+200ms:len=2ms,gap=5ms",
		"storm@150ms+200ms:period=2ms,naks=6,serial=1",
	}
	var block []bench.RunConfig
	for seed := uint64(1); seed <= 2; seed++ {
		for _, spec := range specs {
			block = append(block, matrixConfig(t, spec, seed))
		}
	}
	cfgs := append(append([]bench.RunConfig{}, block...), block...)

	var serial, parallel []bench.RunResult
	bench.SetWorkers(1)
	serial = bench.RunMany(cfgs)
	bench.SetWorkers(8)
	parallel = bench.RunMany(cfgs)
	bench.SetWorkers(0)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("faulted pooled runs differ across worker counts")
	}
	n := len(block)
	for i := range block {
		if !reflect.DeepEqual(serial[i], serial[i+n]) {
			t.Errorf("config %d (spec %q, seed %d): first and repeat execution differ — pooled state leaked across runs",
				i, specs[i%len(specs)], cfgs[i].Seed)
		}
	}
}

// --- Satellite regressions --------------------------------------------------

// TestEnforcedRecoveryResolicitAfterBlackout is the Enforced-Recovery
// re-arm regression: when a checkpoint blackout swallows the Enforced-NAK
// response but periodic checkpoints resume, the sender must solicit again
// off the first live checkpoint (silence window re-measured from that
// solicitation) instead of waiting out the remainder of the original
// failure timer. Pre-fix, recovery here ended only at the failure-timer
// expiry (~285ms) plus a round trip; the bound below caught it.
func TestEnforcedRecoveryResolicitAfterBlackout(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1)
	pcfg := channel.PipeConfig{RateBps: 10e6, Delay: channel.ConstantDelay(10 * sim.Millisecond)}
	link := channel.NewLink(sched, pcfg, rng)

	cfg := lamsdlc.Defaults(20 * sim.Millisecond)
	cfg.CheckpointInterval = 10 * sim.Millisecond
	cfg.CumulationDepth = 8 // widen FailureTimeout so the stall is visible

	pair := arq.NewPair(sched, sched, link, cfg, nil, nil)
	var started, ended []sim.Time
	var failures int
	pair.Sender.SetProbe(&arq.Probe{
		RecoveryStarted: func(now sim.Time) { started = append(started, now) },
		RecoveryEnded:   func(now sim.Time, enforced bool) { ended = append(ended, now) },
		FailureDeclared: func(now sim.Time, reason string) { failures++ },
	})

	// Checkpoint blackout 100ms–240ms: recovery begins mid-blackout, the
	// Enforced-NAK answer dies on the dead return beam, checkpoints resume
	// at restore.
	spec, err := faults.ParseSpec("half@100ms+140ms:dir=ba")
	if err != nil {
		t.Fatal(err)
	}
	faults.NewInjector(sched, spec, nil).AttachLink(link)

	pair.Start()
	for i := 0; i < 40; i++ {
		pair.Sender.Enqueue(arq.Datagram{ID: uint64(i + 1), Payload: make([]byte, 512)})
	}
	sched.RunUntil(sim.Time(600 * sim.Millisecond))

	if failures != 0 {
		t.Fatal("blackout shorter than the failure window still declared failure")
	}
	if len(started) != 1 || len(ended) != 1 {
		t.Fatalf("recovery episodes: started %d times, ended %d times, want 1/1", len(started), len(ended))
	}
	restore := sim.Time(240 * sim.Millisecond)
	// One checkpoint interval for the next emission, a round trip for the
	// re-solicitation, small slack for wire and processing time.
	bound := restore.Add(cfg.CheckpointInterval + cfg.RoundTrip + 5*sim.Millisecond)
	if ended[0] > bound {
		t.Fatalf("recovery ended at %v, want <= %v (re-solicit off the first live checkpoint)", ended[0], bound)
	}
}

// TestNoStallAfterIFrameBeamOutage is the halted-link regression: during an
// I-frame beam outage (checkpoints keep flowing, so no failure is ever
// declared) every outstanding frame retransmits into the dead beam once per
// resolving period, and each retransmission charges the send-rate budget.
// Pre-fix that debt compounded for the whole outage — the longer the beam
// was dark, the longer the re-established link stayed halted for new
// I-frames (~530ms after a 4s outage here, growing linearly). The fix caps
// the budget debt at one resolving period, so new traffic resumes as soon
// as the outstanding frames clear (~110ms). The assertion: the first new
// transmission after restore lands within four resolving periods.
func TestNoStallAfterIFrameBeamOutage(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1)
	pcfg := channel.PipeConfig{RateBps: 1e6, Delay: channel.ConstantDelay(10 * sim.Millisecond)}
	link := channel.NewLink(sched, pcfg, rng)

	cfg := lamsdlc.Defaults(20 * sim.Millisecond)
	cfg.CheckpointInterval = 10 * sim.Millisecond
	cfg.CumulationDepth = 3

	delivered := make(map[uint64]bool)
	pair := arq.NewPair(sched, sched, link, cfg,
		func(_ sim.Time, dg arq.Datagram, _ uint32) { delivered[dg.ID] = true }, nil)
	var firstTx []sim.Time
	var failures int
	pair.Sender.SetProbe(&arq.Probe{
		FirstTransmission: func(now sim.Time, seq uint32, dgID uint64) { firstTx = append(firstTx, now) },
		FailureDeclared:   func(sim.Time, string) { failures++ },
	})

	spec, err := faults.ParseSpec("half@300ms+4s:dir=ab")
	if err != nil {
		t.Fatal(err)
	}
	faults.NewInjector(sched, spec, nil).AttachLink(link)

	pair.Start()
	// A deep backlog keeps the pump saturated across the outage, so the
	// post-restore resume time is visible as the next first transmission.
	for i := 0; i < 400; i++ {
		pair.Sender.Enqueue(arq.Datagram{ID: uint64(i + 1), Payload: make([]byte, 1024)})
	}
	sched.RunUntil(sim.Time(12 * sim.Second))

	if failures != 0 {
		t.Fatal("I-frame outage with live checkpoints declared failure")
	}
	restore := sim.Time(4300 * sim.Millisecond)
	var resumed sim.Time
	for _, ts := range firstTx {
		if ts > restore {
			resumed = ts
			break
		}
	}
	if resumed == 0 {
		t.Fatal("no new I-frame transmission after the beam was restored")
	}
	if bound := restore.Add(4 * cfg.ResolvingPeriod()); resumed > bound {
		t.Fatalf("first new transmission %v after restore at %v, want <= %v: link stayed halted", resumed, restore, bound)
	}
	if len(delivered) != 400 {
		t.Fatalf("delivered %d of 400 datagrams", len(delivered))
	}
}

// --- Checker self-tests -----------------------------------------------------

// TestCheckerFlagsBreaches drives the checker's probe directly with
// histories that violate each rule, confirming the harness can actually see
// the bugs it exists to catch.
func TestCheckerFlagsBreaches(t *testing.T) {
	cfg := lamsdlc.Defaults(20 * sim.Millisecond)
	at := func(ms int64) sim.Time { return sim.Time(sim.Duration(ms) * sim.Millisecond) }

	rules := func(vs []faults.Violation) []string {
		var out []string
		for _, v := range vs {
			out = append(out, v.Rule)
		}
		return out
	}
	expect := func(t *testing.T, vs []faults.Violation, rule string) {
		t.Helper()
		for _, v := range vs {
			if v.Rule == rule {
				return
			}
		}
		t.Fatalf("no %q violation recorded; got %v", rule, rules(vs))
	}

	t.Run("recovery entered early", func(t *testing.T) {
		c := faults.NewChecker(cfg.RecoveryWindows())
		p := c.Probe()
		p.CheckpointHeard(at(100), 1, false)
		p.RecoveryStarted(at(110)) // 10ms of silence, want >= CheckpointTimerTimeout
		expect(t, c.Finish(nil), "recovery-entry")
	})
	t.Run("recovery exit without response", func(t *testing.T) {
		c := faults.NewChecker(cfg.RecoveryWindows())
		p := c.Probe()
		p.CheckpointHeard(at(100), 1, false)
		p.RecoveryStarted(at(200))
		p.RecoveryEnded(at(210), false) // no enforced frame heard at 210ms
		expect(t, c.Finish(nil), "recovery-exit")
	})
	t.Run("new frame during recovery", func(t *testing.T) {
		c := faults.NewChecker(cfg.RecoveryWindows())
		p := c.Probe()
		p.RecoveryStarted(at(200))
		p.FirstTransmission(at(210), 5, 1)
		expect(t, c.Finish(nil), "recovery-gate")
	})
	t.Run("failure before the silence window", func(t *testing.T) {
		c := faults.NewChecker(cfg.RecoveryWindows())
		p := c.Probe()
		p.RecoveryStarted(at(200))
		p.RequestNAKSent(at(200), 1)
		p.FailureDeclared(at(210), "no enforced-NAK") // want >= FailureTimeout
		expect(t, c.Finish(nil), "failure-window")
	})
	t.Run("stale incarnation outlives the resolving period", func(t *testing.T) {
		c := faults.NewChecker(cfg.RecoveryWindows())
		p := c.Probe()
		p.FirstTransmission(at(0), 0, 1)
		p.CheckpointHeard(at(10), 1, false)
		// Steady 10ms checkpoint cadence, but seq 0 never resolves.
		horizon := cfg.ResolvingPeriod() + cfg.RoundTrip + 100*sim.Millisecond
		for ts := at(20); ts < sim.Time(horizon); ts = ts.Add(10 * sim.Millisecond) {
			p.CheckpointHeard(ts, 1, false)
		}
		expect(t, c.Finish(nil), "numbering")
	})
	t.Run("datagram lost", func(t *testing.T) {
		c := faults.NewChecker(cfg.RecoveryWindows())
		accepted := c.WrapSink(func(arq.Datagram) bool { return true })
		accepted(arq.Datagram{ID: 7})
		vs := c.Finish(nil) // neither delivered nor held
		expect(t, vs, "no-loss")
		expect(t, vs, "completion")
	})
	t.Run("duplicate without retransmission", func(t *testing.T) {
		c := faults.NewChecker(cfg.RecoveryWindows())
		accepted := c.WrapSink(func(arq.Datagram) bool { return true })
		deliver := c.WrapDeliver(nil)
		accepted(arq.Datagram{ID: 7})
		c.Probe().FirstTransmission(at(1), 0, 7)
		deliver(at(30), arq.Datagram{ID: 7}, 0)
		deliver(at(40), arq.Datagram{ID: 7}, 1) // second copy, only one tx
		expect(t, c.Finish(nil), "duplicates")
	})
	t.Run("clean run stays clean", func(t *testing.T) {
		c := faults.NewChecker(cfg.RecoveryWindows())
		accepted := c.WrapSink(func(arq.Datagram) bool { return true })
		deliver := c.WrapDeliver(nil)
		p := c.Probe()
		accepted(arq.Datagram{ID: 7})
		p.FirstTransmission(at(1), 0, 7)
		p.CheckpointHeard(at(10), 1, false)
		deliver(at(30), arq.Datagram{ID: 7}, 0)
		p.CheckpointHeard(at(20), 2, false)
		p.Released(at(20), 0, 7)
		if vs := c.Finish(nil); len(vs) != 0 {
			t.Fatalf("clean history produced violations: %v", vs)
		}
	})
}

// TestViolationString pins the report format the CLI prints.
func TestViolationString(t *testing.T) {
	v := faults.Violation{At: sim.Time(5 * sim.Millisecond), Rule: "no-loss", Detail: "datagram 3 vanished"}
	s := v.String()
	if !strings.Contains(s, "no-loss") || !strings.Contains(s, "datagram 3 vanished") {
		t.Fatalf("Violation.String() = %q", s)
	}
}
