package txq

import (
	"slices"
	"testing"

	"repro/internal/arq"
	"repro/internal/metrics"
	"repro/internal/sim"
)

const debt = 10 * sim.Millisecond

// harness is a queue whose pump admits one datagram per firing, like an
// engine's, and records when it ran. fill puts n datagrams, IDs from 100,
// in flight.
type harness struct {
	Queue
	sched *sim.Scheduler
	m     arq.Metrics
	pumps []sim.Time
}

func newHarness(reg *metrics.Registry, capacity int) *harness {
	h := &harness{sched: sim.NewScheduler()}
	h.Queue = New(h.sched, &h.m, capacity, debt, func() {
		now := h.sched.Now()
		h.pumps = append(h.pumps, now)
		if h.Ready(now) && h.Backlog() > 0 {
			h.Admit(now)
			h.Kick(0)
		}
	}, reg.Counter("test_releases_total"), reg.Histogram("test_holding_time_ns", metrics.ExpBuckets(1e5, 2, 24)), reg.Gauge("test_send_outstanding"))
	return h
}

func (h *harness) fill(n int) {
	for i := 0; i < n; i++ {
		if !h.Enqueue(arq.Datagram{ID: uint64(100 + h.m.Submitted.Value()), Payload: []byte("payload")}) {
			panic("enqueue refused")
		}
	}
	h.sched.RunFor(sim.Microsecond)
}

func seqs(es []*Entry) []uint32 {
	out := make([]uint32, len(es))
	for i, e := range es {
		out[i] = e.Seq
	}
	return out
}

// TestPacingDebtBound is the PR 4 / PR 9 regression, asserted directly: the
// wire budget is never booked, and never honored, further ahead of the clock
// than one debt period — whoever wrote it.
func TestPacingDebtBound(t *testing.T) {
	at := 3 * sim.Second // an arbitrary "now" away from zero
	cases := []struct {
		name   string
		ahead  sim.Duration // FreeAt − now before the calls
		charge sim.Duration // booked times over, all at now
		times  int
		want   sim.Duration // FreeAt − now afterwards
	}{
		{"idle wire books from now", -sim.Second, debt / 4, 1, debt / 4},
		{"charges accumulate", 0, debt / 4, 3, 3 * debt / 4},
		{"accumulation stops at the bound", 0, debt / 4, 1000, debt},
		{"one oversized charge", 0, 50 * debt, 1, debt},
		{"a corrupted budget is pulled back by the next charge", 4 * debt, 1, 1, debt},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(nil, 0)
			h.sched.RunFor(at)
			now := h.sched.Now()
			h.FreeAt = now.Add(c.ahead)
			for i := 0; i < c.times; i++ {
				h.Charge(now, c.charge)
				if h.FreeAt > now.Add(debt) {
					t.Fatalf("Charge booked %v ahead, past the %v debt bound", h.FreeAt.Sub(now), debt)
				}
			}
			if got := h.FreeAt.Sub(now); got != c.want {
				t.Fatalf("FreeAt is %v ahead, want %v", got, c.want)
			}
		})
	}

	t.Run("a budget 4x the debt ahead resumes within one debt period", func(t *testing.T) {
		h := newHarness(nil, 0)
		h.sched.RunFor(at)
		now := h.sched.Now()
		h.FreeAt = now.Add(4 * debt) // what CorruptState writes
		h.Enqueue(arq.Datagram{ID: 1})
		h.sched.RunFor(debt)
		if h.Unacked() != 1 {
			t.Fatalf("nothing admitted within one debt period (pumps at %v, FreeAt %v)", h.pumps, h.FreeAt)
		}
		want := []sim.Time{now, now.Add(debt), now.Add(debt)} // refused and re-armed, admitted, found the backlog empty
		if !slices.Equal(h.pumps, want) {
			t.Fatalf("pump ran at %v, want %v", h.pumps, want)
		}
	})
	t.Run("Ready on a free wire neither waits nor re-arms", func(t *testing.T) {
		h := newHarness(nil, 0)
		h.sched.RunFor(at)
		if !h.Ready(h.sched.Now()) || h.pump.Active() {
			t.Fatalf("Ready = false or pump armed on an idle budget")
		}
	})
}

func TestKickKeepsTheEarlierDeadline(t *testing.T) {
	h := newHarness(nil, 0)
	h.Kick(5 * sim.Millisecond)
	h.Kick(8 * sim.Millisecond) // later: ignored
	h.Kick(2 * sim.Millisecond) // earlier: replaces
	h.sched.RunFor(20 * sim.Millisecond)
	if want := []sim.Time{sim.Time(2 * sim.Millisecond)}; !slices.Equal(h.pumps, want) {
		t.Fatalf("pump ran at %v, want %v", h.pumps, want)
	}
}

func TestEnqueueRefusal(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		offered  int
		closeAt  int // Close before this offer; -1 never
		accepted int
	}{
		{"unbounded", 0, 50, -1, 50},
		{"at capacity", 3, 5, -1, 3},
		{"after Close", 0, 5, 2, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(nil, c.capacity)
			h.sched.RunFor(sim.Millisecond)
			accepted := 0
			for i := 0; i < c.offered; i++ {
				if i == c.closeAt {
					h.Close()
				}
				if h.Enqueue(arq.Datagram{ID: uint64(i)}) {
					accepted++
				}
			}
			if accepted != c.accepted || h.Outstanding() != c.accepted || h.m.Submitted.Value() != uint64(c.accepted) {
				t.Fatalf("accepted %d, outstanding %d, submitted %d; want %d", accepted, h.Outstanding(), h.m.Submitted.Value(), c.accepted)
			}
			if h.Closed() != (c.closeAt >= 0) {
				t.Fatalf("Closed() = %v", h.Closed())
			}
			for _, dg := range h.UnreleasedDatagrams() {
				if dg.EnqueuedAt != sim.Time(sim.Millisecond) {
					t.Fatalf("datagram %d stamped %v, want the enqueue instant", dg.ID, dg.EnqueuedAt)
				}
			}
			if got := h.m.SendBufOcc.Current(); got != float64(c.accepted) {
				t.Fatalf("occupancy noted as %v, want %d", got, c.accepted)
			}
		})
	}
	t.Run("capacity counts in-flight entries and frees on release", func(t *testing.T) {
		h := newHarness(nil, 2)
		h.fill(2)
		if h.Unacked() != 2 || h.Enqueue(arq.Datagram{}) {
			t.Fatal("two in flight at capacity 2, yet a third was accepted")
		}
		h.Sweep(func(e *Entry) bool { h.Release(h.sched.Now(), e); return false })
		if !h.Enqueue(arq.Datagram{}) {
			t.Fatal("refused with the buffer empty")
		}
	})
	t.Run("Close stops a pending pump", func(t *testing.T) {
		h := newHarness(nil, 0)
		h.Enqueue(arq.Datagram{})
		h.Close()
		h.sched.RunFor(sim.Second)
		if len(h.pumps) != 0 || h.Backlog() != 1 {
			t.Fatalf("pump ran %d times after Close", len(h.pumps))
		}
	})
}

func TestSweepKeepsOrderAndNilsTheTail(t *testing.T) {
	h := newHarness(nil, 0)
	h.fill(6)
	backing := h.InFlight()[:6:6]
	var dropped []*Entry
	h.Sweep(func(e *Entry) bool {
		if e.Seq%2 == 1 {
			return true
		}
		dropped = append(dropped, e)
		return false
	})
	if got := seqs(h.InFlight()); !slices.Equal(got, []uint32{1, 3, 5}) {
		t.Fatalf("kept %v, want [1 3 5] in order", got)
	}
	for i, e := range backing[3:] {
		if e != nil {
			t.Fatalf("vacated slot %d still pins entry seq %d", 3+i, e.Seq)
		}
	}
	if got := h.m.SendBufOcc.Current(); got != 3 {
		t.Fatalf("occupancy noted as %v after the sweep, want 3", got)
	}

	// Renumbered entries go to the back under fresh numbers; the queue
	// counts them again only then.
	now := h.sched.Now().Add(sim.Millisecond)
	for _, e := range dropped {
		h.Renumber(now, e)
	}
	if got := seqs(h.InFlight()); !slices.Equal(got, []uint32{1, 3, 5, 6, 7, 8}) || h.NextSeq() != 9 {
		t.Fatalf("after renumbering: %v next %d, want [1 3 5 6 7 8] next 9", got, h.NextSeq())
	}
	if e := dropped[0]; e.LastTx != now || e.FirstTx == now {
		t.Fatalf("Renumber set FirstTx %v LastTx %v; only LastTx moves", e.FirstTx, e.LastTx)
	}
	if got := h.m.SendBufOcc.Current(); got != 6 {
		t.Fatalf("occupancy noted as %v after renumbering, want 6", got)
	}
}

func TestUnreleasedDatagramsInFlightThenBacklog(t *testing.T) {
	h := newHarness(nil, 0)
	h.fill(3) // IDs 100..102 in flight as seq 0..2
	var first *Entry
	h.Sweep(func(e *Entry) bool {
		if e.Seq == 0 {
			first = e
		}
		return e.Seq != 0
	})
	h.Renumber(h.sched.Now(), first) // 100 now rides behind 101, 102
	for id := uint64(200); id < 203; id++ {
		h.Enqueue(arq.Datagram{ID: id}) // the pump does not run: backlog
	}
	var got []uint64
	for _, dg := range h.UnreleasedDatagrams() {
		got = append(got, dg.ID)
	}
	if want := []uint64{101, 102, 100, 200, 201, 202}; !slices.Equal(got, want) {
		t.Fatalf("UnreleasedDatagrams = %v, want %v (in-flight by seq, then backlog)", got, want)
	}
}

func TestReleaseAccounting(t *testing.T) {
	reg := metrics.New()
	h := newHarness(reg, 0)
	var seen []uint64
	h.Probe = &arq.Probe{Released: func(_ sim.Time, seq uint32, id uint64) { seen = append(seen, uint64(seq)<<32|id) }}
	h.sched.RunFor(sim.Millisecond)
	h.fill(2)
	h.sched.RunFor(4 * sim.Millisecond)
	now := h.sched.Now()
	var released *Entry
	var held float64
	h.Sweep(func(e *Entry) bool {
		if e.Seq == 1 {
			return true
		}
		released, held = e, float64(now.Sub(e.FirstTx))
		h.Release(now, e)
		return false
	})
	if want := []uint64{0<<32 | 100}; !slices.Equal(seen, want) {
		t.Fatalf("Probe.Released saw %x, want %x", seen, want)
	}
	if released.Dg.Payload != nil || released.Dg.ID != 0 || released.FirstTx != 0 {
		t.Fatalf("released entry went back to the pool unzeroed: %+v", *released)
	}
	snap := reg.Snapshot()
	if snap.Counter("test_releases_total") != 1 || snap.Gauges["test_send_outstanding"] != 1 {
		t.Fatalf("instruments: releases %d outstanding %v, want 1 and 1", snap.Counter("test_releases_total"), snap.Gauges["test_send_outstanding"])
	}
	if hs := snap.Histograms["test_holding_time_ns"]; hs.Count != 1 || hs.Sum != held || held != float64(4*sim.Millisecond+sim.Microsecond) {
		t.Fatalf("holding-time histogram %+v, want one sample of %v (first transmission to release)", hs, held)
	}
	if got := h.m.HoldingTime.Mean(); h.m.HoldingTime.N() != 1 || got != held {
		t.Fatalf("arq.Metrics holding time %v, want %v", got, held)
	}
}

// TestCycleNoAllocs pins the steady-state buffer cycle — enqueue, admit,
// sweep with one renumbering and the rest released — at zero allocations.
func TestCycleNoAllocs(t *testing.T) {
	// 4 per round stays inside one backlog chunk and the in-flight list's
	// first window, handing both back every round; the larger batch spans
	// three chunks and outgrows the window.
	for _, batch := range []int{4, 2*chunkSlots + 3} {
		sched := sim.NewScheduler()
		var m arq.Metrics
		var q Queue
		q = New(sched, &m, 0, debt, func() {
			for now := sched.Now(); q.Ready(now) && q.Backlog() > 0; {
				q.Admit(now)
			}
		}, nil, nil, nil)
		round := func() {
			for i := 0; i < batch; i++ {
				q.Enqueue(arq.Datagram{ID: uint64(i)})
			}
			sched.RunFor(sim.Microsecond)
			now := sched.Now()
			var again *Entry
			q.Sweep(func(e *Entry) bool {
				if again == nil {
					again = e
				} else {
					q.Release(now, e)
				}
				return false
			})
			q.Renumber(now, again)
			q.Charge(now, sim.Nanosecond)
			q.Sweep(func(e *Entry) bool { q.Release(now, e); return false })
		}
		for i := 0; i < 50; i++ {
			round()
		}
		if avg := testing.AllocsPerRun(100, round); avg != 0 {
			t.Fatalf("buffer cycle of %d allocates %.2f/op, want 0", batch, avg)
		}
		if q.Outstanding() != 0 || m.HoldingTime.N() != uint64(batch)*151 {
			t.Fatal("the pin measured nothing")
		}
	}
}
