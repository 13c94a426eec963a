// Package workload generates the traffic patterns the experiments offer to
// the protocols: saturating sources for the high-traffic throughput
// experiments, constant-rate and Poisson arrivals for delay and buffer
// studies, and on-off bursts for flow-control scenarios.
//
// A generator drives a Sink (normally Sender.Enqueue) on the simulation
// clock and assigns consecutive datagram IDs, which is what the destination
// resequencer keys on.
package workload

import (
	"repro/internal/arq"
	"repro/internal/sim"
)

// Sink accepts generated datagrams; it reports false when the receiver's
// buffer refused the datagram (the generator retries or counts the drop).
type Sink func(dg arq.Datagram) bool

// Generator is the common control surface.
type Generator struct {
	sched *sim.Scheduler
	sink  Sink

	nextID    uint64
	size      int
	remaining int // total datagrams still to offer; -1 = unlimited
	stopped   bool

	// arena supplies the payloads (see UseArena); own is the one a generator
	// starts with.
	arena *Arena
	own   Arena

	// Offered and Refused count sink attempts.
	Offered, Refused uint64

	next func() // arms the next arrival
}

// UseArena makes a the source of the generator's payloads, so that a's owner
// — a harness running many generators in turn — is the one whose Reset checks
// them. Nil reverts to the generator's own arena.
func (g *Generator) UseArena(a *Arena) { g.arena = a }

// Stop halts the generator.
func (g *Generator) Stop() { g.stopped = true }

// NextID returns the next datagram ID to be offered.
func (g *Generator) NextID() uint64 { return g.nextID }

// Done reports whether the generator has offered its full count.
func (g *Generator) Done() bool { return g.remaining == 0 }

func (g *Generator) offer() bool {
	a := g.arena
	if a == nil {
		a = &g.own
	}
	dg := arq.Datagram{ID: g.nextID, Payload: a.Alloc(g.size)}
	g.Offered++
	if !g.sink(dg) {
		// A refusing sink does not retain the datagram; the next attempt
		// offers the same ID again.
		g.Refused++
		return false
	}
	g.nextID++
	if g.remaining > 0 {
		g.remaining--
	}
	return true
}

// NewConstantRate offers one datagram of the given size every interval,
// count times (count < 0 means unlimited). Refused datagrams are retried at
// the next tick, preserving ID order.
func NewConstantRate(sched *sim.Scheduler, sink Sink, interval sim.Duration, size, count int) *Generator {
	if interval <= 0 {
		panic("workload: non-positive interval")
	}
	g := &Generator{sched: sched, sink: sink, size: size, remaining: count}
	g.next = func() {
		if g.stopped || g.remaining == 0 {
			return
		}
		g.offer()
		if g.remaining != 0 {
			sched.ScheduleAfterDetached(interval, g.next)
		}
	}
	sched.ScheduleAfterDetached(0, g.next)
	return g
}

// NewPoisson offers datagrams with exponentially distributed inter-arrival
// times of the given mean.
func NewPoisson(sched *sim.Scheduler, rng *sim.RNG, sink Sink, meanInterval sim.Duration, size, count int) *Generator {
	if meanInterval <= 0 {
		panic("workload: non-positive mean interval")
	}
	g := &Generator{sched: sched, sink: sink, size: size, remaining: count}
	g.next = func() {
		if g.stopped || g.remaining == 0 {
			return
		}
		g.offer()
		if g.remaining != 0 {
			sched.ScheduleAfterDetached(rng.ExpDuration(meanInterval), g.next)
		}
	}
	sched.ScheduleAfterDetached(rng.ExpDuration(meanInterval), g.next)
	return g
}

// NewSaturating keeps the sink full: it offers datagrams until refused,
// then retries every pollInterval. It reproduces the "incoming rate into
// the sending buffer is always 1/t_f" assumption of the §4 buffer analysis.
func NewSaturating(sched *sim.Scheduler, sink Sink, pollInterval sim.Duration, size, count int) *Generator {
	if pollInterval <= 0 {
		panic("workload: non-positive poll interval")
	}
	g := &Generator{sched: sched, sink: sink, size: size, remaining: count}
	g.next = func() {
		if g.stopped || g.remaining == 0 {
			return
		}
		for g.remaining != 0 {
			if !g.offer() {
				break
			}
		}
		if g.remaining != 0 {
			sched.ScheduleAfterDetached(pollInterval, g.next)
		}
	}
	sched.ScheduleAfterDetached(0, g.next)
	return g
}

// NewOnOff alternates between an on-phase offering at the given interval
// and a silent off-phase — the bursty arrivals flow-control experiments
// use.
func NewOnOff(sched *sim.Scheduler, sink Sink, interval, onFor, offFor sim.Duration, size, count int) *Generator {
	if interval <= 0 || onFor <= 0 || offFor < 0 {
		panic("workload: bad on/off parameters")
	}
	g := &Generator{sched: sched, sink: sink, size: size, remaining: count}
	phaseEnd := sim.Time(0).Add(onFor)
	g.next = func() {
		if g.stopped || g.remaining == 0 {
			return
		}
		now := sched.Now()
		if now >= phaseEnd {
			// Enter the off phase, then resume.
			phaseEnd = now.Add(offFor).Add(onFor)
			sched.ScheduleAfterDetached(offFor, g.next)
			return
		}
		g.offer()
		if g.remaining != 0 {
			sched.ScheduleAfterDetached(interval, g.next)
		}
	}
	sched.ScheduleAfterDetached(0, g.next)
	return g
}
