package arqtest_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/arq"
	"repro/internal/arq/arqtest"
	"repro/internal/channel"
	"repro/internal/sim"

	_ "repro/internal/engines" // the contract covers every registered engine
)

// The engine contract: the properties every registered engine holds on the
// link, whatever its recovery strategy. Each row runs for every entry of
// arq.Protocols(), so registering an engine is all it takes to cover it; a
// row an engine cannot meet is listed in exempt with its reason.

type scenario = arqtest.Scenario[arq.SenderHalf, arq.ReceiverHalf]

func newScenario(t *testing.T, cfg arq.EngineConfig, o arqtest.Options) *scenario {
	t.Helper()
	return arqtest.New[arq.SenderHalf, arq.ReceiverHalf](t, cfg, o)
}

type contractRow struct {
	name string
	run  func(t *testing.T, reg arq.Registration)
}

var rows = []contractRow{
	{"clean", clean},
	{"lossy", lossy},
	{"determinism", determinism},
	{"stop", stop},
	{"sendcap", sendCap},
	{"probes", probeRow(senderProbes)},
	{"probes-recovery", probeRow(recoveryProbes)},
	{"probes-receiver", probeRow(receiverProbes)},
	{"scramble", scramble},
	{"warm-run", warmRun},
}

// exempt is the one table of contract rows an engine does not run, by
// engine and row, each with its reason.
var exempt = map[string]map[string]string{
	"srhdlc": hdlcExempt,
	"gbn":    hdlcExempt,
	"ssarq": {
		"sendcap":         "configure ignores SendCap (DESIGN.md §16): mapping it moves the link_engines_burst pin, ROADMAP 1(a)",
		"probes-recovery": "no checkpoint process, no enforced recovery",
		"probes-receiver": "the receiver only acknowledges: no checkpoint process, no Stop-Go",
		"warm-run":        "no arq.Recycler: the send queue's chunks go to the collector at teardown (ROADMAP item 9(c))",
	},
}

var hdlcExempt = map[string]string{
	"sendcap":         "§4: the HDLC sending buffer is unbounded; the window bounds only what is in flight",
	"probes-recovery": "no checkpoint process, no enforced recovery (probe.go)",
	"probes-receiver": "the receiver has no checkpoint process and no Stop-Go",
}

func TestContract(t *testing.T) {
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, name := range arq.Protocols() {
				t.Run(name, func(t *testing.T) {
					if why, ok := exempt[name][row.name]; ok {
						t.Skip(why)
					}
					reg, err := arq.ParseProtocol(name)
					if err != nil {
						t.Fatal(err)
					}
					row.run(t, reg)
				})
			}
		})
	}
}

// TestExemptionsNameRealRows keeps the exemption table honest: each entry
// names a registered engine and a row of the contract.
func TestExemptionsNameRealRows(t *testing.T) {
	for name, byRow := range exempt {
		if _, err := arq.ParseProtocol(name); err != nil {
			t.Errorf("exemption for unregistered engine: %v", err)
		}
		for row := range byRow {
			if !slices.ContainsFunc(rows, func(r contractRow) bool { return r.name == row }) {
				t.Errorf("%s: exemption for unknown row %q", name, row)
			}
		}
	}
}

// knobs is the harness setting every row configures its engine from,
// through the registration's Configure — the mapping bench.Run uses.
func knobs() arq.Knobs {
	return arq.Knobs{
		RoundTrip: arqtest.RoundTrip, Icp: 10 * sim.Millisecond, Cdepth: 3,
		W: 32, Alpha: arqtest.RoundTrip / 2, Tproc: 10 * sim.Microsecond,
	}
}

// clean: on an error-free link every datagram arrives exactly once and in
// order, nothing is retransmitted or suppressed, and the sending buffer
// drains.
func clean(t *testing.T, reg arq.Registration) {
	sc := newScenario(t, reg.Configure(knobs()), arqtest.Options{Seed: 1})
	const n = 300
	sc.EnqueueAll(n, 1024)
	sc.Sched.RunFor(10 * sim.Second)
	sc.AssertExactlyOnce(n)
	for i, id := range sc.Order {
		if id != uint64(i) {
			t.Fatalf("delivery %d is datagram %d: out of order on a clean link", i, id)
		}
	}
	m := sc.Metrics()
	if r, d := m.Retransmissions.Value(), m.DupSuppressed.Value(); r != 0 || d != 0 {
		t.Errorf("%d retransmissions, %d duplicates suppressed on a clean link", r, d)
	}
	if out := sc.Outstanding(); out != 0 {
		t.Errorf("%d datagrams never released", out)
	}
}

const lossyN = 200

// lossyRun sends lossyN datagrams over a link that corrupts 15 % of the
// I-frames and 5 % of the control frames, with the §3.2 checker attached.
func lossyRun(t *testing.T, reg arq.Registration) *scenario {
	pipe := arqtest.Pipe()
	pipe.IModel = channel.FixedProb{P: 0.15}
	pipe.CModel = channel.FixedProb{P: 0.05}
	sc := newScenario(t, reg.Configure(knobs()), arqtest.Options{Pipe: pipe, Seed: 7, Check: true})
	sc.EnqueueAll(lossyN, 1024)
	sc.Sched.RunFor(60 * sim.Second)
	return sc
}

// lossy: on a lossy link the checker sees no breach, nothing is lost, and a
// datagram arrives twice only across a declared failure.
func lossy(t *testing.T, reg arq.Registration) {
	sc := lossyRun(t, reg)
	for _, v := range sc.Checker.Finish(sc.Reclaim()) {
		t.Error(v)
	}
	sc.AssertAllDelivered(lossyN)
	if d := sc.Duplicates(); d != 0 && sc.FailedAt == 0 {
		t.Errorf("%d duplicate deliveries without a declared failure", d)
	}
	if sc.Metrics().Retransmissions.Value() == 0 {
		t.Error("no retransmission: the link lost nothing")
	}
}

// determinism: the same seed gives the same delivery order and counters.
func determinism(t *testing.T, reg arq.Registration) {
	a, b := lossyRun(t, reg), lossyRun(t, reg)
	if !reflect.DeepEqual(a.Order, b.Order) {
		t.Error("two runs of one seed delivered in different orders")
	}
	if ma, mb := a.Metrics(), b.Metrics(); !reflect.DeepEqual(*ma, *mb) {
		t.Errorf("two runs of one seed counted differently:\n%s\n%s", ma.Summary(), mb.Summary())
	}
}

// stop: a Stop mid-transfer declares no failure; every datagram is
// delivered or handed back by Reclaim, oldest first; and the stopped pair
// refuses work and reports Failed.
func stop(t *testing.T, reg arq.Registration) {
	pipe := arqtest.Pipe()
	pipe.IModel = arqtest.CorruptEvery(3)
	sc := newScenario(t, reg.Configure(knobs()), arqtest.Options{Pipe: pipe, Seed: 1})
	const n = 200
	sc.EnqueueAll(n, 512)
	// The first frames have arrived, but no acknowledgement — hence no
	// release and no retransmission — has come back yet: the held datagrams
	// are still in enqueue order.
	sc.Sched.RunFor(20 * sim.Millisecond)
	sc.Stop()
	held := sc.Reclaimed(n)
	if len(sc.Got) == 0 || len(held) == 0 {
		t.Fatalf("not stopped mid-transfer: %d delivered, %d held", len(sc.Got), len(held))
	}
	for i := 1; i < len(held); i++ {
		if held[i].ID <= held[i-1].ID {
			t.Fatalf("Reclaim()[%d] is datagram %d after %d: not oldest first", i, held[i].ID, held[i-1].ID)
		}
	}
	if sc.Enqueue(arq.Datagram{ID: n}) {
		t.Error("stopped pair accepted a datagram")
	}
	if !sc.Failed() {
		t.Error("stopped pair does not report Failed")
	}
	sc.Stop() // idempotent
	sc.Sched.RunFor(20 * sim.Second)
	if sc.FailedAt != 0 || sc.Metrics().Failures.Value() != 0 {
		t.Errorf("Stop declared a failure: %q", sc.FailMsg)
	}
}

// sendCap: the SendCap knob, mapped by Configure, bounds the sending buffer:
// Enqueue is refused at the cap and accepted again once the buffer drains.
func sendCap(t *testing.T, reg arq.Registration) {
	k := knobs()
	k.SendCap = 5
	sc := newScenario(t, reg.Configure(k), arqtest.Options{Seed: 1})
	accepted := 0
	for i := 0; i < 2*k.SendCap; i++ {
		if sc.Enqueue(arq.Datagram{ID: uint64(i), Payload: make([]byte, 64)}) {
			accepted++
		}
	}
	if accepted != k.SendCap {
		t.Fatalf("accepted %d datagrams, want SendCap %d", accepted, k.SendCap)
	}
	sc.Sched.RunFor(sim.Second)
	if !sc.Enqueue(arq.Datagram{ID: 100, Payload: make([]byte, 64)}) {
		t.Fatal("enqueue refused after the buffer drained")
	}
}

// The probe rows: each arq.Probe callback belongs to one row, and an engine
// that runs the row fires every callback of it in probeRun.
var (
	senderProbes   = []string{"FirstTransmission", "Retransmitted", "Released"}
	recoveryProbes = []string{"CheckpointHeard", "RecoveryStarted", "RequestNAKSent", "RecoveryEnded"}
	receiverProbes = []string{"CheckpointSent", "StopGoChanged"}
)

// TestProbeRowsCoverEveryCallback: a callback added to arq.Probe needs a
// probe row (FailureDeclared is checked by the probes row against the
// failure callback).
func TestProbeRowsCoverEveryCallback(t *testing.T) {
	rowed := map[string]bool{"FailureDeclared": true}
	for _, set := range [][]string{senderProbes, recoveryProbes, receiverProbes} {
		for _, name := range set {
			rowed[name] = true
		}
	}
	pt := reflect.TypeOf(arq.Probe{})
	for i := 0; i < pt.NumField(); i++ {
		if !rowed[pt.Field(i).Name] {
			t.Errorf("arq.Probe.%s is in no probe row", pt.Field(i).Name)
		}
	}
}

// tap returns a probe whose every callback counts its firings into fired,
// by field name.
func tap(fired map[string]int) *arq.Probe {
	p := new(arq.Probe)
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		v.Field(i).Set(reflect.MakeFunc(v.Field(i).Type(), func([]reflect.Value) []reflect.Value {
			fired[name]++
			return nil
		}))
	}
	return p
}

// probeRun drives every transition the probe reports: a lossy transfer into
// a slow, small receive buffer (retransmissions, Stop-Go), a 50 ms outage of
// the return path (checkpoint silence, enforced recovery and its end), then
// a dead link under load (failure, where the engine declares one).
func probeRun(t *testing.T, reg arq.Registration) (map[string]int, *scenario) {
	k := knobs()
	k.RecvCap, k.Tproc, k.N2 = 16, 500*sim.Microsecond, 6
	pipe := arqtest.Pipe()
	pipe.IModel = channel.FixedProb{P: 0.1}
	pipe.CModel = channel.FixedProb{P: 0.05}
	fired := make(map[string]int)
	sc := newScenario(t, reg.Configure(k), arqtest.Options{Pipe: pipe, Seed: 3, Probe: tap(fired)})
	sc.EnqueueAll(200, 1024)
	sc.Sched.RunFor(2 * sim.Second)
	sc.Link.BtoA.SetDown(true)
	sc.Sched.RunFor(50 * sim.Millisecond)
	sc.Link.BtoA.SetDown(false)
	sc.Sched.RunFor(2 * sim.Second)
	sc.Link.Fail()
	for i := 0; i < 10; i++ {
		sc.Enqueue(arq.Datagram{ID: 1000 + uint64(i), Payload: make([]byte, 1024)})
	}
	sc.Sched.RunFor(20 * sim.Second)
	return fired, sc
}

func probeRow(callbacks []string) func(*testing.T, arq.Registration) {
	return func(t *testing.T, reg arq.Registration) {
		fired, sc := probeRun(t, reg)
		for _, name := range callbacks {
			if fired[name] == 0 {
				t.Errorf("Probe.%s never fired", name)
			}
		}
		if (fired["FailureDeclared"] > 0) != (sc.FailedAt != 0) {
			t.Errorf("Probe.FailureDeclared fired %d times, failure callback at %v", fired["FailureDeclared"], sc.FailedAt)
		}
	}
}

// scramble: after an era of CorruptState calls, fresh traffic gets through
// without a failure declaration — the bounded corruption contract
// (DESIGN.md §13), at ten seeds.
func scramble(t *testing.T, reg arq.Registration) {
	k := knobs()
	k.N2 = 12 // a wedged link declares instead of polling forever
	cfg := reg.Configure(k)
	corrupt, ok := cfg.(arq.StateCorruptor)
	if !ok {
		t.Fatalf("%s is no arq.StateCorruptor: exempt the row, with the reason", reg.Name)
	}
	for seed := uint64(1); seed <= 10; seed++ {
		sc := newScenario(t, cfg, arqtest.Options{Seed: seed})
		rng := sim.NewRNG(seed * 7919)
		for i := 0; i < 30; i++ {
			sc.Sched.Schedule(sim.Time(int64(i)*int64(10*sim.Millisecond)), func() {
				corrupt.CorruptState(sc.Pair, rng)
				sc.Enqueue(arq.Datagram{ID: uint64(i), Payload: make([]byte, 128)})
			})
		}
		sc.Sched.RunFor(500 * sim.Millisecond)
		for i := 0; i < 40; i++ {
			sc.Enqueue(arq.Datagram{ID: 1000 + uint64(i), Payload: make([]byte, 128)})
		}
		sc.Sched.RunFor(5 * sim.Second)
		if sc.Failed() {
			t.Fatalf("seed %d: the scramble era led to a failure declaration: %s", seed, sc.FailMsg)
		}
		for i := 0; i < 40; i++ {
			if sc.Got[1000+uint64(i)] == 0 {
				t.Fatalf("seed %d: post-scramble datagram %d never delivered", seed, 1000+i)
			}
		}
	}
}

// warmAllocBudget bounds what a warm run allocates: building the world —
// scheduler, link, pair and halves (25–30 objects for the engines in tree).
const warmAllocBudget = 40

// warmRun: a run torn down by Pair.Recycle and Scheduler.Recycle hands the
// next run everything it grew — sending buffer, receive buffer with the
// frames it holds, scratch lists and maps — so a warm run stopped
// mid-transfer allocates what an idle one does: the world it builds, and
// nothing per datagram or per frame.
func warmRun(t *testing.T, reg arq.Registration) {
	cfg := reg.Configure(knobs())
	payload := make([]byte, 512)
	warm := func(n int) float64 {
		run := func() {
			sched := sim.NewScheduler()
			pipe := arqtest.Pipe()
			pipe.IModel = arqtest.CorruptEvery(10) // a gap is always open
			link := channel.NewLink(sched, pipe, sim.NewRNG(3))
			delivered := 0
			pair := arq.NewPair(sched, sched, link, cfg, func(sim.Time, arq.Datagram, uint32) { delivered++ }, nil)
			pair.Start()
			for i := 0; i < n; i++ {
				pair.Enqueue(arq.Datagram{ID: uint64(i), Payload: payload})
			}
			sched.RunFor(100 * sim.Millisecond)
			if n > 0 && (delivered == 0 || delivered == n) {
				t.Fatalf("not stopped mid-transfer: %d of %d delivered", delivered, n)
			}
			// Stop with the gaps open, and let the dead link swallow what
			// is in flight: a frame on a pipe at teardown is the channel's
			// to hand back, the frames a receiver holds are the engine's.
			pair.Stop()
			link.Fail()
			sched.RunFor(sim.Second)
			pair.Recycle()
			sched.Recycle()
		}
		run()
		run()
		return testing.AllocsPerRun(3, run)
	}
	idle, loaded := warm(0), warm(4000)
	t.Logf("a warm run allocates %v objects idle, %v with 4,000 datagrams", idle, loaded)
	if loaded > idle || loaded > warmAllocBudget {
		t.Errorf("a warm run allocates %v objects with 4,000 datagrams, %v idle (budget %d)", loaded, idle, warmAllocBudget)
	}
}
