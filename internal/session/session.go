// Package session manages an ARQ engine across the short link lifetimes that
// define the LAMS environment (§1–2): a crosslink exists only while two
// satellites see each other (minutes), every pass begins with a retargeting
// overhead while the laser terminals acquire pointing, and traffic that a
// pass could not finish must carry over to the next pass without loss and
// reach the application exactly once.
//
// The Manager owns a queue of outstanding datagrams and a sequence of
// passes (visibility windows). For each pass it builds a fresh link and a
// fresh endpoint pair from its configured engine (protocol state does not
// survive retargeting; any registered arq engine works), sets the engine's
// link lifetime to the remaining pass, feeds the queue, and at pass end
// reclaims the sender's unreleased datagrams for the next pass.
// Deliveries from all passes funnel through one resequencer, so duplicates
// created by pass-boundary retransmission are suppressed and the
// application sees each datagram exactly once, in order.
package session

import (
	"fmt"
	"slices"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/resequence"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Pass is one usable link opportunity in simulation time.
type Pass struct {
	Start, End sim.Time
}

// LinkFactory builds the simulated link for pass i. Each pass gets a fresh
// link (new geometry, new error-process state).
type LinkFactory func(i int, p Pass) *channel.Link

// Config parameterizes the Manager.
type Config struct {
	// Engine is the per-pass ARQ engine: a registered engine's
	// configuration. Its link lifetime is overwritten per pass via
	// WithLinkLifetime.
	Engine arq.EngineConfig
	// Retarget is the pointing-acquisition overhead at the start of every
	// pass during which the link cannot carry traffic (§1: "a large
	// retargeting overhead which occupies a significant portion of the
	// link lifetime").
	Retarget sim.Duration
}

// Stats counts manager activity.
type Stats struct {
	Passes      stats.Counter
	CarriedOver stats.Counter // datagrams reclaimed at pass ends
	Duplicates  stats.Counter // suppressed cross-pass duplicates
	Delivered   stats.Counter // released to the application
	Failures    stats.Counter // in-pass link failures
}

// Manager drives traffic across passes.
type Manager struct {
	sched   *sim.Scheduler
	cfg     Config
	passes  []Pass
	factory LinkFactory

	queue  []arq.Datagram // waiting for a pass, oldest first
	nextID uint64
	cur    *arq.Pair
	curIdx int

	reseq *resequence.Resequencer
	// OnDeliver receives exactly-once, in-order datagrams.
	OnDeliver func(now sim.Time, dg arq.Datagram)

	Stats Stats
}

// New schedules a manager over the given passes. Passes must be sorted and
// non-overlapping.
func New(sched *sim.Scheduler, cfg Config, passes []Pass, factory LinkFactory) *Manager {
	if cfg.Engine == nil {
		panic("session: nil engine configuration")
	}
	if err := cfg.Engine.Validate(); err != nil {
		panic(err)
	}
	if cfg.Retarget < 0 {
		panic("session: negative retarget overhead")
	}
	if factory == nil {
		panic("session: nil link factory")
	}
	for i := range passes {
		if passes[i].End <= passes[i].Start {
			panic(fmt.Sprintf("session: degenerate pass %d", i))
		}
		if i > 0 && passes[i].Start < passes[i-1].End {
			panic(fmt.Sprintf("session: pass %d overlaps its predecessor", i))
		}
	}
	m := &Manager{sched: sched, cfg: cfg, passes: passes, factory: factory}
	m.reseq = resequence.New(sched, func(now sim.Time, dg arq.Datagram) {
		m.Stats.Delivered.Inc()
		if m.OnDeliver != nil {
			m.OnDeliver(now, dg)
		}
	})
	for i, p := range passes {
		i, p := i, p
		usable := p.Start.Add(cfg.Retarget)
		if usable.Before(p.End) {
			sched.Schedule(usable, func() { m.startPass(i, p) })
			sched.Schedule(p.End, func() { m.endPass(i) })
		}
		// A pass shorter than the retargeting overhead is unusable and
		// silently skipped — the constellation planner's problem.
	}
	return m
}

// Send enqueues a payload for transfer; datagram IDs are assigned
// consecutively, which is what the cross-pass resequencer orders by.
func (m *Manager) Send(payload []byte) uint64 {
	id := m.nextID
	m.nextID++
	dg := arq.Datagram{ID: id, Payload: payload}
	if m.cur != nil && m.cur.Enqueue(dg) {
		return id
	}
	m.queue = append(m.queue, dg)
	return id
}

func (m *Manager) startPass(i int, p Pass) {
	link := m.factory(i, p)
	eng := m.cfg.Engine.WithLinkLifetime(p.End.Sub(m.sched.Now()))
	pair := arq.NewPair(m.sched, m.sched, link, eng,
		func(now sim.Time, dg arq.Datagram, _ uint32) {
			// Cross-pass duplicate suppression + ordering.
			before := m.reseq.Stats.Duplicates.Value()
			m.reseq.Push(now, dg)
			m.Stats.Duplicates.Addn(m.reseq.Stats.Duplicates.Value() - before)
		},
		func(now sim.Time, reason string) {
			m.Stats.Failures.Inc()
		})
	pair.Start()
	m.cur = pair
	m.curIdx = i
	m.Stats.Passes.Inc()
	// Feed everything waiting, oldest first; refusals stay queued in their
	// relative order.
	m.queue = slices.DeleteFunc(m.queue, pair.Enqueue)
}

func (m *Manager) endPass(i int) {
	if m.cur == nil || m.curIdx != i {
		return
	}
	pair := m.cur
	m.cur = nil
	// Stop the protocol: the beam is gone. Unreleased datagrams (never
	// positively acknowledged) carry over; some may already have arrived —
	// the resequencer absorbs the duplicates.
	pair.Stop()
	pair.Link().Fail()
	carried := pair.Reclaim()
	m.Stats.CarriedOver.Addn(uint64(len(carried)))
	// Carried datagrams go to the front: they are the oldest.
	m.queue = slices.Insert(m.queue, 0, carried...)
}

// Summary renders headline counters.
func (m *Manager) Summary() string {
	return fmt.Sprintf("passes=%d delivered=%d carried=%d dup=%d failures=%d pending=%d",
		m.Stats.Passes.Value(), m.Stats.Delivered.Value(), m.Stats.CarriedOver.Value(),
		m.Stats.Duplicates.Value(), m.Stats.Failures.Value(), len(m.queue))
}
