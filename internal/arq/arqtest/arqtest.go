// Package arqtest is the test kit every ARQ engine shares: one Scenario (an
// arq.NewPair over a simulated channel.Link, with delivery and failure
// recorded and the §3.2 invariant checker on request), one deterministic
// error model and one frame sink. The engine contract — the properties every
// registered engine must hold — is this package's own test, which runs it
// over arq.Protocols(); the engines' internal tests use the kit for their
// engine-specific properties. The package imports no engine, so those
// internal tests can import it.
package arqtest

import (
	"testing"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/sim"
)

// RoundTrip is the kit's link round trip: a 4,000 km hop, R ≈ 26 ms.
const RoundTrip = 26 * sim.Millisecond

// Pipe is one direction of the kit's link: 100 Mb/s, error-free, with a
// constant one-way delay of RoundTrip/2.
func Pipe() channel.PipeConfig {
	return channel.PipeConfig{RateBps: 100e6, Delay: channel.ConstantDelay(RoundTrip / 2)}
}

// Options describes a Scenario's link and what is attached to the pair.
type Options struct {
	// Pipe configures both directions, or A→B only when BtoA is set. The
	// zero value is Pipe().
	Pipe channel.PipeConfig
	BtoA *channel.PipeConfig
	// Seed seeds the link's error processes.
	Seed uint64
	// Check attaches a faults.Checker, with the engine's recovery windows
	// when its configuration is an arq.WindowsProvider; Probe installs a
	// transition observer instead. Both are installed before Start.
	Check bool
	Probe *arq.Probe
	// Deliver, when set, also sees every delivery, after the Scenario
	// recorded it.
	Deliver arq.DeliverFunc
}

// Scenario is a started engine pair on its own scheduler: I-frames flow A→B
// into the receiver, acknowledgements B→A. Sender and Receiver are the
// pair's halves as S and R, so an engine's white-box tests reach their
// state; the contract instantiates it with the arq half interfaces.
type Scenario[S arq.SenderHalf, R arq.ReceiverHalf] struct {
	*arq.Pair
	Sender   S
	Receiver R
	Sched    *sim.Scheduler
	Link     *channel.Link
	Checker  *faults.Checker // nil unless Options.Check

	Got      map[uint64]int // datagram ID → deliveries
	Order    []uint64       // datagram IDs in delivery order
	FailedAt sim.Time       // when the failure callback fired; 0 if never
	FailMsg  string

	t       testing.TB
	enqueue func(arq.Datagram) bool
}

// New builds cfg's pair over the link o describes through arq.NewPair and
// starts it.
func New[S arq.SenderHalf, R arq.ReceiverHalf](t testing.TB, cfg arq.EngineConfig, o Options) *Scenario[S, R] {
	t.Helper()
	if o.Pipe.RateBps == 0 && o.Pipe.Delay == nil {
		o.Pipe = Pipe()
	}
	ba := o.Pipe
	if o.BtoA != nil {
		ba = *o.BtoA
	}
	sched := sim.NewScheduler()
	sc := &Scenario[S, R]{
		Sched: sched,
		Link:  channel.NewAsymmetricLink(sched, o.Pipe, ba, sim.NewRNG(o.Seed)),
		Got:   make(map[uint64]int),
		t:     t,
	}
	var deliver arq.DeliverFunc = func(now sim.Time, dg arq.Datagram, seq uint32) {
		sc.Got[dg.ID]++
		sc.Order = append(sc.Order, dg.ID)
		if o.Deliver != nil {
			o.Deliver(now, dg, seq)
		}
	}
	if o.Check {
		var w arq.RecoveryWindows
		if wp, ok := cfg.(arq.WindowsProvider); ok {
			w = wp.RecoveryWindows()
		}
		sc.Checker = faults.NewChecker(w)
		sc.Checker.Now = sched.Now
		deliver = sc.Checker.WrapDeliver(deliver)
	}
	sc.Pair = arq.NewPair(sched, sched, sc.Link, cfg, deliver, func(now sim.Time, reason string) {
		sc.FailedAt, sc.FailMsg = now, reason
	})
	sc.Sender, sc.Receiver = sc.Pair.Sender.(S), sc.Pair.Receiver.(R)
	sc.enqueue = sc.Pair.Enqueue
	switch {
	case sc.Checker != nil:
		sc.Pair.SetProbe(sc.Checker.Probe())
		sc.enqueue = sc.Checker.WrapSink(sc.enqueue)
	case o.Probe != nil:
		sc.Pair.SetProbe(o.Probe)
	}
	sc.Pair.Start()
	return sc
}

// Enqueue submits dg, through the checker when one is attached.
func (sc *Scenario[S, R]) Enqueue(dg arq.Datagram) bool { return sc.enqueue(dg) }

// EnqueueAll submits datagrams 0…n−1 of size bytes each and fails the test
// if the engine refuses one.
func (sc *Scenario[S, R]) EnqueueAll(n, size int) {
	sc.t.Helper()
	for i := 0; i < n; i++ {
		if !sc.Enqueue(arq.Datagram{ID: uint64(i), Payload: make([]byte, size)}) {
			sc.t.Fatalf("datagram %d refused", i)
		}
	}
}

// AssertAllDelivered fails the test unless datagrams 0…n−1 each arrived at
// least once.
func (sc *Scenario[S, R]) AssertAllDelivered(n int) {
	sc.t.Helper()
	for i := 0; i < n; i++ {
		if sc.Got[uint64(i)] == 0 {
			sc.t.Fatalf("datagram %d lost (delivered %d/%d)", i, len(sc.Got), n)
		}
	}
}

// AssertExactlyOnce fails the test unless datagrams 0…n−1, and nothing else,
// each arrived exactly once.
func (sc *Scenario[S, R]) AssertExactlyOnce(n int) {
	sc.t.Helper()
	for i := 0; i < n; i++ {
		if c := sc.Got[uint64(i)]; c != 1 {
			sc.t.Fatalf("datagram %d delivered %d times, want exactly once", i, c)
		}
	}
	if len(sc.Got) != n {
		sc.t.Fatalf("delivered %d distinct datagrams, want %d", len(sc.Got), n)
	}
}

// Reclaimed ends a stopped transfer of datagrams 0…n−1: it fails the test
// unless each was delivered or is handed back by Reclaim — the ownership
// contract of arq.Pair — and nothing comes back twice, and it returns what
// Reclaim handed back.
func (sc *Scenario[S, R]) Reclaimed(n int) []arq.Datagram {
	sc.t.Helper()
	held := sc.Reclaim()
	owned := make(map[uint64]bool, len(held))
	for _, dg := range held {
		if owned[dg.ID] {
			sc.t.Errorf("Reclaim returned datagram %d twice", dg.ID)
		}
		owned[dg.ID] = true
	}
	for id := uint64(0); id < uint64(n); id++ {
		if sc.Got[id] == 0 && !owned[id] {
			sc.t.Errorf("datagram %d neither delivered nor reclaimable", id)
		}
	}
	return held
}

// Duplicates counts the deliveries beyond each datagram's first.
func (sc *Scenario[S, R]) Duplicates() int {
	d := 0
	for _, c := range sc.Got {
		d += c - 1
	}
	return d
}

// Corrupt is the kit's deterministic error model: it counts the
// transmissions it judges from 1 and corrupts those At names, and every
// Every-th when Every is set.
type Corrupt struct {
	At    map[int]bool
	Every int
	count int
}

// CorruptAt corrupts the listed transmissions.
func CorruptAt(counts ...int) *Corrupt {
	c := &Corrupt{At: make(map[int]bool, len(counts))}
	for _, n := range counts {
		c.At[n] = true
	}
	return c
}

// CorruptEvery corrupts every n-th transmission.
func CorruptEvery(n int) *Corrupt { return &Corrupt{Every: n} }

// Corrupt implements channel.ErrorModel.
func (c *Corrupt) Corrupt(*sim.RNG, sim.Time, sim.Time, int) bool {
	c.count++
	return c.At[c.count] || c.Every > 0 && c.count%c.Every == 0
}

// NullWire is an arq.Wire that swallows frames without copying or keeping
// them, so an allocation pin measures only the half it drives.
type NullWire struct{}

// Send drops f.
func (NullWire) Send(*frame.Frame) {}

// TxTime is zero: the wire is infinitely fast.
func (NullWire) TxTime(*frame.Frame) sim.Duration { return 0 }
