// Package shard is the conservative parallel simulation engine: it
// partitions one scenario across K worker shards, each owning a private
// sim.Scheduler and the protocol entities homed on its satellites, and
// synchronizes them with lookahead-bounded global rounds.
//
// The synchronization model is the classic conservative BSP window. Let W
// be the minimum propagation delay over every inter-satellite link in the
// scenario (the lookahead). Round k covers simulated time [kW, (k+1)W−1]:
// every shard first drains its mailbox of frames stamped inside the round,
// schedules them as ordinary arrival events, and runs its scheduler to the
// round boundary; a barrier separates rounds. A frame posted during round k
// departs at a clock ≥ kW and arrives ≥ W later, i.e. at ≥ (k+1)W — strictly
// beyond the round — so one barrier per round is sufficient: no shard can
// receive an event in its past, and no null messages are needed.
//
// Determinism is independent of K by construction:
//
//   - Every inter-satellite frame crosses a mailbox, even when both ends
//     happen to live on the same shard, so the event-insertion schedule —
//     and therefore FIFO tie-breaking among equal timestamps — is identical
//     at every shard count.
//   - A mailbox drain sorts by the canonical key (arrival time, lane,
//     per-lane sequence) before scheduling, erasing the nondeterministic
//     order in which concurrent senders appended.
//   - Each shard only ever mutates its own scheduler's state; the only
//     shared structures are the mutex-guarded mailboxes.
//
// Under those rules a K-shard run is bit-identical to the 1-shard run of
// the same configuration, which is what the constellation pins assert.
package shard

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// lane is one wired pipe: the identity that breaks ties in a drain, and the
// arrival callback that re-enters the pipe on the receiving shard.
type lane struct {
	id      uint32
	pipe    *channel.Pipe
	dst     *Shard
	seq     uint64    // post counter, owned by the transmit shard
	deliver func(any) // arrive bound once, for ScheduleArgDetached
}

// arrive is the arrival event for one mailbox message: re-enter the pipe on
// the receiving side. The event fires at the stamped arrival time, so the
// receiving scheduler's clock is that stamp.
func (ln *lane) arrive(v any) {
	ln.pipe.DeliverInbound(ln.dst.sched.Now(), v.(*frame.Frame))
}

// message is one frame in flight between shards, with the canonical
// ordering key (at, lane, seq).
type message struct {
	at   sim.Time
	f    *frame.Frame
	lane *lane
	seq  uint64 // per-lane post counter
}

// compare is the canonical drain order: arrival time, then lane, then the
// lane's own FIFO counter. Lanes are unique per pipe and seq unique per
// lane, so the order is total and the sort needs no stability.
func (m message) compare(n message) int {
	switch {
	case m.at != n.at:
		if m.at.Before(n.at) {
			return -1
		}
		return 1
	case m.lane.id != n.lane.id:
		if m.lane.id < n.lane.id {
			return -1
		}
		return 1
	case m.seq < n.seq:
		return -1
	case m.seq > n.seq:
		return 1
	}
	return 0
}

// Shard is one partition: a scheduler plus the mailbox other shards post
// into. All fields below the mailbox are touched only by the shard's own
// round, which runs on one goroutine at a time.
type Shard struct {
	id    int
	sched *sim.Scheduler

	// in is the mailbox: posted messages bucketed by the round they fall
	// due in. slots is a ring indexed by round number modulo its (power of
	// two) length; drained is the last round whose slot was emptied, so the
	// live slots are drained+1 … drained+len(slots)−1 and a post beyond
	// them grows the ring. A poster files a message straight into its due
	// slot and the drain takes that slot whole: each message is written
	// once and read once.
	in struct {
		mu      sync.Mutex
		slots   [][]message
		drained int64
	}

	spare []message // a drained slot's backing array, handed to the next slot emptied
	late  []message // due in the final round but past the horizon; see DropInflight

	// Host-time accounting, written by the shard's own round (two clock
	// reads per round) and read by the coordinator at barriers.
	stats     ShardStats
	lastBusy  time.Duration
	idleSince time.Time
}

// ShardStats is where one shard's host time went over a Run, and what its
// mailbox carried.
type ShardStats struct {
	// Busy is time inside rounds: mailbox drain plus event execution.
	Busy time.Duration
	// Wait is time between rounds: the barrier itself plus waiting for
	// slower shards (and, on shard 0, evaluating stop).
	Wait time.Duration
	// Drained counts mailbox messages scheduled as arrival events.
	Drained uint64
	// EmptyRounds counts rounds in which the shard executed no event.
	EmptyRounds int
}

// RunStats is the host-side account of one Engine.Run: none of it is
// simulated, none of it is deterministic, and none of it may enter a
// report that the determinism pins compare.
type RunStats struct {
	Rounds int
	Wall   time.Duration
	// Critical sums, over rounds, the busy time of that round's slowest
	// shard: the wall time an ideal barrier would leave. Wall − Critical
	// is what the barrier and stop cost; Critical ÷ (ΣBusy ÷ K) is the
	// per-round imbalance of the partition.
	Critical time.Duration
	Shards   []ShardStats
}

// ID returns the shard's index in [0, Engine.Shards()).
func (sh *Shard) ID() int { return sh.id }

// Scheduler returns the shard's private scheduler. Entities homed on the
// shard must be built on it, and it must only be driven through Engine.Run.
func (sh *Shard) Scheduler() *sim.Scheduler { return sh.sched }

// post files m under the round it falls due in.
func (sh *Shard) post(m message, round int64) {
	in := &sh.in
	in.mu.Lock()
	if round-in.drained >= int64(len(in.slots)) {
		sh.growSlots(round)
	}
	s := &in.slots[round&int64(len(in.slots)-1)]
	*s = append(*s, m)
	in.mu.Unlock()
}

// growSlots doubles the ring until round fits. Called with in.mu held.
func (sh *Shard) growSlots(round int64) {
	in := &sh.in
	n := len(in.slots)
	for round-in.drained >= int64(n) {
		n *= 2
	}
	grown := make([][]message, n)
	for r := in.drained; r < in.drained+int64(len(in.slots)); r++ {
		grown[r&int64(n-1)] = in.slots[r&int64(len(in.slots)-1)]
	}
	in.slots = grown
}

// round takes the mailbox slot of the given round, schedules everything in
// it that is due by end in canonical order, and advances the shard's clock
// to the round boundary.
func (sh *Shard) round(round int64, end sim.Time) {
	start := time.Now()
	sh.stats.Wait += start.Sub(sh.idleSince)

	in := &sh.in
	in.mu.Lock()
	s := &in.slots[round&int64(len(in.slots)-1)]
	due := *s
	*s = sh.spare
	in.drained = round
	in.mu.Unlock()

	slices.SortFunc(due, message.compare)
	n := len(due)
	for n > 0 && due[n-1].at.After(end) {
		n-- // only when the horizon cuts the final round short
	}
	frames := channel.Frames(sh.sched)
	for _, m := range due[:n] {
		// The frame came from the sending shard's free list; from here on
		// this shard's goroutine is the one that Puts it.
		frames.Adopt(m.f)
		sh.sched.ScheduleArgDetached(m.at, m.lane.deliver, m.f)
	}
	sh.late = append(sh.late, due[n:]...)
	sh.spare = due[:0]
	sh.stats.Drained += uint64(n)

	executed := sh.sched.Executed()
	sh.sched.RunUntil(end)
	if sh.sched.Executed() == executed {
		sh.stats.EmptyRounds++
	}

	sh.idleSince = time.Now()
	sh.lastBusy = sh.idleSince.Sub(start)
	sh.stats.Busy += sh.lastBusy
}

// Engine couples K shards to one lookahead window and runs them in rounds.
type Engine struct {
	shards []*Shard
	window sim.Duration
	stats  RunStats
	// last is the final round's index once Run has begun: a frame due
	// beyond it is filed under it, where the drain moves it to late, so no
	// arrival past the horizon can grow a mailbox ring.
	last int64

	// The round barrier. The coordinator publishes a round's parameters,
	// then advances released; each worker runs the round and adds one to
	// arrived. Both counters only grow — round r is released when released
	// reaches r and complete when arrived reaches r·(K−1) — so nothing is
	// ever reset and a late reader cannot see a stale zero.
	bar struct {
		released, arrived atomic.Uint64
		// Written before released advances, read after observing it.
		round int64
		end   sim.Time
		quit  bool
		polls int // barrierPolls, or 0 when shards outnumber cores

		mu          sync.Mutex // guards the two conditions' sleepers only
		start, done sync.Cond
	}
}

// New builds an engine of k shards with the given lookahead window — the
// minimum propagation delay over every wired pipe, which the scenario
// builder must establish from its own geometry. The window is the engine's
// correctness contract: Wire panics at runtime if any frame undercuts it.
func New(k int, window sim.Duration) *Engine {
	if k < 1 {
		panic("shard: need at least one shard")
	}
	if window <= 0 {
		panic("shard: lookahead window must be positive")
	}
	e := &Engine{shards: make([]*Shard, k), window: window, last: math.MaxInt64}
	e.bar.start.L, e.bar.done.L = &e.bar.mu, &e.bar.mu
	for i := range e.shards {
		sh := &Shard{id: i, sched: sim.NewScheduler()}
		sh.in.slots = make([][]message, 8)
		sh.in.drained = -1
		e.shards[i] = sh
	}
	return e
}

// Shards returns K.
func (e *Engine) Shards() int { return len(e.shards) }

// Shard returns shard i.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// Window returns the lookahead window.
func (e *Engine) Window() sim.Duration { return e.window }

// Executed sums events executed across all shards. Because every
// inter-satellite frame is mailboxed at every K, the sum is invariant
// across shard counts — a cheap canary for determinism regressions.
func (e *Engine) Executed() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.sched.Executed()
	}
	return n
}

// Wire routes p's deliveries through dst's mailbox. src is the shard that
// owns p's transmit side (whose scheduler p was built on); dst owns the
// receive side. lane must be unique per wired pipe — it is the tiebreak
// that makes drains deterministic. Every inter-satellite pipe must be
// wired, including pipes whose two ends share a shard: uniform mailboxing
// is what keeps the event schedule identical at every K.
func (e *Engine) Wire(src, dst *Shard, p *channel.Pipe, laneID uint32) {
	window := e.window
	ln := &lane{id: laneID, pipe: p, dst: dst}
	ln.deliver = ln.arrive
	p.SetRemote(func(at sim.Time, f *frame.Frame) {
		if now := src.sched.Now(); at.Before(now.Add(window)) {
			panic(fmt.Sprintf("shard: lookahead violation on lane %d: arrival %v < %v + window %v",
				laneID, at, now, window))
		}
		ln.seq++
		// Round r (counted from 0) covers [rW, (r+1)W−1].
		dst.post(message{at: at, f: f, lane: ln, seq: ln.seq}, min(int64(at)/int64(window), e.last))
	})
}

// Barrier waits escalate in three steps. When every shard can have a core
// (K ≤ GOMAXPROCS) a waiter first polls for a few microseconds, so shards
// that finish together never enter the scheduler; with more shards than
// cores the poll would only delay the shards still to run, and is skipped.
// The waiter then yields, which costs about as much as a poll when nothing
// else is runnable and otherwise hands the core to whatever is — the other
// shards, or unrelated work sharing the process — so an oversubscribed run
// progresses at the speed of its work, not of its waiting. Only a wait that
// outlasts both (a round far out of balance, a descheduled peer) parks,
// because a parked goroutine costs tens of microseconds to wake: that, once
// or twice every round, is what the channel barrier this replaces paid.
const (
	barrierPolls  = 1 << 12
	barrierYields = 1 << 10
)

// await returns once v has reached want.
func (e *Engine) await(v *atomic.Uint64, want uint64, parked *sync.Cond) {
	for i := 0; i < e.bar.polls; i++ {
		if v.Load() >= want {
			return
		}
	}
	for i := 0; i < barrierYields; i++ {
		if v.Load() >= want {
			return
		}
		runtime.Gosched()
	}
	e.bar.mu.Lock()
	for v.Load() < want {
		parked.Wait()
	}
	e.bar.mu.Unlock()
}

// wake rouses whoever parked on c. Taking the mutex orders this after a
// sleeper's last look at its counter, so a wake-up cannot fall between
// that look and the sleep.
func (e *Engine) wake(c *sync.Cond) {
	e.bar.mu.Lock()
	c.Broadcast()
	e.bar.mu.Unlock()
}

// work is one worker's life: run each released round on sh until told to
// quit.
func (e *Engine) work(sh *Shard) {
	workers := uint64(len(e.shards) - 1)
	for r := uint64(1); ; r++ {
		e.await(&e.bar.released, r, &e.bar.start)
		if e.bar.quit {
			return
		}
		sh.round(e.bar.round, e.bar.end)
		if e.bar.arrived.Add(1) == r*workers {
			e.wake(&e.bar.done)
		}
	}
}

// Run executes the simulation to the horizon in conservative rounds and
// returns the number of rounds run. stop, if non-nil, is evaluated on the
// calling goroutine at every round barrier (all shards quiescent, so it may
// read any shard-owned state) and ends the run early when true.
//
// The caller's goroutine coordinates and runs shard 0's rounds itself; K−1
// workers, started here and gone before Run returns, run the others. At
// K = 1 there are no workers and every barrier operation is a no-op on
// counters nobody else reads: the one-shard run is the same code. An Engine
// runs once.
func (e *Engine) Run(horizon sim.Duration, stop func() bool) int {
	final := sim.Time(0).Add(horizon)
	w := int64(e.window)
	e.last = int64(final) / w
	workers := uint64(len(e.shards) - 1)
	bar := &e.bar
	if bar.released.Load() != 0 {
		panic("shard: Engine.Run called twice")
	}
	if len(e.shards) <= runtime.GOMAXPROCS(0) {
		bar.polls = barrierPolls
	}

	var wg sync.WaitGroup
	for _, sh := range e.shards[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.work(sh)
		}()
	}
	release := func() {
		bar.released.Add(1)
		e.wake(&bar.start)
	}
	defer func() {
		bar.quit = true
		release()
		wg.Wait()
	}()

	began := time.Now()
	for _, sh := range e.shards {
		sh.idleSince = began
	}
	rounds := 0
	for {
		end := sim.Time(w*int64(rounds+1) - 1)
		if !end.Before(final) {
			end = final
		}
		bar.round, bar.end = int64(rounds), end
		rounds++
		release()
		e.shards[0].round(bar.round, end)
		e.await(&bar.arrived, uint64(rounds)*workers, &bar.done)

		slowest := time.Duration(0)
		for _, sh := range e.shards {
			slowest = max(slowest, sh.lastBusy)
		}
		e.stats.Critical += slowest
		if stop != nil && stop() {
			break
		}
		if end == final {
			break
		}
	}
	e.stats.Rounds = rounds
	e.stats.Wall = time.Since(began)
	return rounds
}

// Stats returns the host-time account of the run.
func (e *Engine) Stats() RunStats {
	st := e.stats
	st.Shards = make([]ShardStats, len(e.shards))
	for i, sh := range e.shards {
		st.Shards[i] = sh.stats
	}
	return st
}

// total sums the per-shard rows.
func (st RunStats) total() ShardStats {
	var t ShardStats
	for _, sh := range st.Shards {
		t.Busy += sh.Busy
		t.Wait += sh.Wait
		t.Drained += sh.Drained
		t.EmptyRounds += sh.EmptyRounds
	}
	return t
}

// Publish adds the account to reg as the shard_* counter families, summed
// over shards (the registry is flat; Render prints the per-shard rows). A
// nil registry is a no-op.
func (st RunStats) Publish(reg *metrics.Registry) {
	t := st.total()
	reg.Counter("shard_rounds_total").Add(uint64(st.Rounds))
	reg.Counter("shard_wall_ns_total").Add(uint64(st.Wall))
	reg.Counter("shard_critical_ns_total").Add(uint64(st.Critical))
	reg.Counter("shard_busy_ns_total").Add(uint64(t.Busy))
	reg.Counter("shard_barrier_wait_ns_total").Add(uint64(t.Wait))
	reg.Counter("shard_messages_drained_total").Add(t.Drained)
	reg.Counter("shard_empty_rounds_total").Add(uint64(t.EmptyRounds))
}

// Render prints the account, one row per shard under a summary that splits
// the wall time three ways: the shards' mean busy time (against the
// one-shard run's busy time, the inflation sharing the machine costs), the
// per-round imbalance that stretches it to Critical, and the barrier and
// stop check that stretch Critical to Wall. It is what lamsconst -rounds
// prints; nothing in it is reproducible.
func (st RunStats) Render() string {
	busy := st.total().Busy
	mean := busy / time.Duration(max(len(st.Shards), 1))
	barrier := st.Wall - st.Critical
	us := time.Microsecond
	var b strings.Builder
	fmt.Fprintf(&b, "rounds: shards=%d rounds=%d wall=%s critical=%s busy(sum)=%s busy(mean)=%s imbalance=%.3f barrier=%s (%.1f us/round)\n",
		len(st.Shards), st.Rounds, st.Wall.Round(us), st.Critical.Round(us), busy.Round(us), mean.Round(us),
		float64(st.Critical)/float64(max(mean, 1)),
		barrier.Round(us), float64(barrier)/float64(us)/float64(max(st.Rounds, 1)))
	for i, sh := range st.Shards {
		fmt.Fprintf(&b, "  shard %d: busy=%s wait=%s drained=%d empty-rounds=%d\n",
			i, sh.Busy.Round(us), sh.Wait.Round(us), sh.Drained, sh.EmptyRounds)
	}
	return b.String()
}

// DropInflight releases every frame still crossing a mailbox back to the
// free list of the shard that sent it. Call it once after Run, when no shard
// is running any more: frames cut off by the horizon (or by an early stop)
// are owned by nobody else.
func (e *Engine) DropInflight() {
	for _, sh := range e.shards {
		sh.in.mu.Lock()
		for i, s := range sh.in.slots {
			for _, m := range s {
				frame.Put(m.f)
			}
			sh.in.slots[i] = s[:0]
		}
		sh.in.mu.Unlock()
		for _, m := range sh.late {
			frame.Put(m.f)
		}
		sh.late = sh.late[:0]
	}
}
