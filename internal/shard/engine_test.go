package shard

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// runMailboxScenario drives one fixed traffic pattern — two pipes crossing
// between two entities, sends scheduled from both sides — through the
// engine at the given shard count and returns a trace of every delivery.
// src entity lives on shard 0, dst on shard min(k-1, 1).
func runMailboxScenario(t *testing.T, k int) []string {
	t.Helper()
	const window = 2 * sim.Millisecond
	eng := New(k, window)
	s0 := eng.Shard(0)
	s1 := eng.Shard(k - 1)

	cfg := channel.PipeConfig{RateBps: 1e6, Delay: channel.ConstantDelay(window)}
	fwd := channel.NewPipe(s0.Scheduler(), cfg, sim.NewRNG(7))
	rev := channel.NewPipe(s1.Scheduler(), cfg, sim.NewRNG(8))
	eng.Wire(s0, s1, fwd, 0)
	eng.Wire(s1, s0, rev, 1)

	// Each handler runs on its own shard, so each gets its own trace
	// slice; the two are concatenated only after the run.
	var fwdTrace, revTrace []string
	fwd.SetHandler(func(now sim.Time, f *frame.Frame) {
		fwdTrace = append(fwdTrace, fmt.Sprintf("fwd seq=%d at=%v", f.Seq, now))
		// bounce a reply so traffic crosses shards both ways
		if f.Seq < 8 {
			g := frame.NewI(f.Seq+100, 0, nil)
			rev.Send(g)
			frame.Put(g)
		}
		frame.Put(f)
	})
	rev.SetHandler(func(now sim.Time, f *frame.Frame) {
		revTrace = append(revTrace, fmt.Sprintf("rev seq=%d at=%v", f.Seq, now))
		frame.Put(f)
	})

	for i := 0; i < 10; i++ {
		seq := uint32(i)
		s0.Scheduler().ScheduleDetached(sim.Time(0).Add(sim.Duration(i)*sim.Millisecond), func() {
			g := frame.NewI(seq, 0, nil)
			fwd.Send(g)
			frame.Put(g)
		})
	}
	eng.Run(100*sim.Millisecond, nil)
	eng.DropInflight()
	return append(fwdTrace, revTrace...)
}

// TestEngineMailboxDeterminism pins the mailbox machinery: the same
// scenario yields the identical delivery trace at one and two shards, and
// deliveries happen at the stamped arrival times (send + wire + window).
func TestEngineMailboxDeterminism(t *testing.T) {
	one := runMailboxScenario(t, 1)
	two := runMailboxScenario(t, 2)
	if len(one) == 0 {
		t.Fatal("no deliveries")
	}
	if fmt.Sprint(one) != fmt.Sprint(two) {
		t.Fatalf("trace differs between 1 and 2 shards:\n1: %v\n2: %v", one, two)
	}
}

// TestEngineLookaheadViolation pins the window contract: wiring a pipe
// whose delay undercuts the engine window must panic at send time.
func TestEngineLookaheadViolation(t *testing.T) {
	eng := New(2, 5*sim.Millisecond)
	s0, s1 := eng.Shard(0), eng.Shard(1)
	p := channel.NewPipe(s0.Scheduler(), channel.PipeConfig{
		Delay: channel.ConstantDelay(1 * sim.Millisecond), // < window
	}, sim.NewRNG(1))
	p.SetHandler(func(sim.Time, *frame.Frame) {})
	eng.Wire(s0, s1, p, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("send below the lookahead window did not panic")
		}
	}()
	g := frame.NewI(1, 0, nil)
	defer frame.Put(g)
	p.Send(g)
}

// TestEngineRoundCount pins the round arithmetic: horizon exactly divisible
// by the window, horizon smaller than the window, and early stop.
func TestEngineRoundCount(t *testing.T) {
	// Round k ends at k·W−1 (the boundary instant belongs to the next
	// round), so a horizon of exactly 10 windows takes 11 rounds: ten full
	// windows plus the horizon instant itself.
	eng := New(1, 10*sim.Millisecond)
	if got := eng.Run(100*sim.Millisecond, nil); got != 11 {
		t.Fatalf("100ms/10ms = %d rounds, want 11", got)
	}
	eng = New(1, 10*sim.Millisecond)
	if got := eng.Run(3*sim.Millisecond, nil); got != 1 {
		t.Fatalf("3ms horizon under a 10ms window = %d rounds, want 1", got)
	}
	eng = New(1, 10*sim.Millisecond)
	calls := 0
	got := eng.Run(100*sim.Millisecond, func() bool { calls++; return calls >= 3 })
	if got != 3 {
		t.Fatalf("early stop after 3 barriers ran %d rounds", got)
	}
}

// TestEngineEmptyRounds pins the barrier alone: ten thousand rounds with
// nothing to do complete at every K, on every shard, and are counted empty.
func TestEngineEmptyRounds(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8} {
		eng := New(k, sim.Millisecond)
		if got := eng.Run(9999*sim.Millisecond, nil); got != 10000 {
			t.Fatalf("k=%d: %d rounds, want 10000", k, got)
		}
		st := eng.Stats()
		if st.Rounds != 10000 || len(st.Shards) != k {
			t.Fatalf("k=%d: stats %+v", k, st)
		}
		for i, sh := range st.Shards {
			if sh.EmptyRounds != 10000 || sh.Drained != 0 {
				t.Fatalf("k=%d shard %d: %+v", k, i, sh)
			}
		}
	}
}

// TestEngineStopSeesQuiescentShards pins the barrier's contract with stop:
// it runs with every shard parked between rounds, each clock exactly on the
// round boundary, so it may read shard-owned state with no synchronization
// of its own. Under the race detector an early stop call is a reported race
// on ticks; without it, a clock off the boundary fails the test.
func TestEngineStopSeesQuiescentShards(t *testing.T) {
	const k, window = 3, sim.Millisecond
	eng := New(k, window)
	ticks := make([]int, k)
	for i := 0; i < k; i++ {
		sched := eng.Shard(i).Scheduler()
		var tick func()
		tick = func() {
			ticks[i]++
			sched.ScheduleAfterDetached(100*sim.Microsecond, tick)
		}
		sched.ScheduleDetached(0, tick)
	}
	calls := 0
	rounds := eng.Run(sim.Second, func() bool {
		calls++
		end := sim.Time(int64(calls)*int64(window) - 1)
		for i := 0; i < k; i++ {
			if now := eng.Shard(i).Scheduler().Now(); now != end {
				t.Errorf("barrier %d: shard %d clock %v, want %v", calls, i, now, end)
			}
			if ticks[i] != 10*calls {
				t.Errorf("barrier %d: shard %d ran %d ticks, want %d", calls, i, ticks[i], 10*calls)
			}
		}
		return calls == 50
	})
	if rounds != 50 {
		t.Fatalf("ran %d rounds, want 50", rounds)
	}
}

// TestEngineWorkersExitWithRun pins the worker lifetime: Run starts K−1
// goroutines and every one of them is gone when it returns, after a full
// run and after an early stop alike.
func TestEngineWorkersExitWithRun(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, stopAt := range []int{0, 3} {
		eng := New(8, sim.Millisecond)
		calls := 0
		eng.Run(100*sim.Millisecond, func() bool { calls++; return calls == stopAt })
	}
	// A worker's last act is to signal Run, so it may still be unwinding
	// for an instant after Run returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before Run, %d after", before, after)
	}
}

// boundaryScenario sends one frame per entry of sendAt (shard 0's clock)
// over an infinitely fast pipe with the given propagation delay into shard
// k−1, runs to the horizon, and returns the arrival time and the round
// (counted from 1) of every delivery, plus the engine for mailbox checks.
func boundaryScenario(t *testing.T, k int, window, delay, horizon sim.Duration, sendAt ...sim.Time) (*Engine, []sim.Time, []int) {
	t.Helper()
	eng := New(k, window)
	src, dst := eng.Shard(0), eng.Shard(k-1)
	p := channel.NewPipe(src.Scheduler(), channel.PipeConfig{Delay: channel.ConstantDelay(delay)}, sim.NewRNG(1))
	eng.Wire(src, dst, p, 0)
	barriers := 0
	var at []sim.Time
	var round []int
	p.SetHandler(func(now sim.Time, f *frame.Frame) {
		at = append(at, now)
		round = append(round, barriers+1)
		frame.Put(f)
	})
	for i, when := range sendAt {
		seq := uint32(i)
		src.Scheduler().ScheduleDetached(when, func() {
			g := frame.NewI(seq, 0, nil)
			p.Send(g)
			frame.Put(g)
		})
	}
	eng.Run(horizon, func() bool { barriers++; return false })
	return eng, at, round
}

// TestEngineBoundaryInstantBelongsToNextRound pins the round arithmetic on
// the mailbox side: round k ends at k·W−1, so a frame stamped exactly k·W
// is drained in round k+1 — and one stamped k·W−1 in round k — at every K.
func TestEngineBoundaryInstantBelongsToNextRound(t *testing.T) {
	const w = 2 * sim.Millisecond
	for _, k := range []int{1, 2} {
		// Sent at W and at 2W−1 with delay W: stamped 2W and 3W−1.
		_, at, round := boundaryScenario(t, k, w, w, 10*w, sim.Time(w), sim.Time(2*w-1))
		want := []sim.Time{sim.Time(2 * w), sim.Time(3*w - 1)}
		if fmt.Sprint(at) != fmt.Sprint(want) || fmt.Sprint(round) != "[3 3]" {
			t.Fatalf("k=%d: arrivals %v in rounds %v, want %v in rounds [3 3]", k, at, round, want)
		}
		// Stamped 2W−1 (sent at W−1): the last instant of round 2.
		_, at, round = boundaryScenario(t, k, w, w, 10*w, sim.Time(w-1))
		if len(at) != 1 || at[0] != sim.Time(2*w-1) || round[0] != 2 {
			t.Fatalf("k=%d: arrival %v in round %v, want %v in round 2", k, at, round, sim.Time(2*w-1))
		}
	}
}

// inflight counts the frames a shard's mailbox still holds.
func (e *Engine) inflight() int {
	n := 0
	for _, sh := range e.shards {
		for _, s := range sh.in.slots {
			n += len(s)
		}
		n += len(sh.late)
	}
	return n
}

// TestEngineDropInflightReturnsHorizonCutFrames pins the end of a run: a
// frame stamped inside the final round but past the horizon, and one
// stamped rounds beyond it, are never delivered, stay in the mailbox, and
// are handed back by DropInflight. The far one is filed under the final
// round and leaves the mailbox ring at its size: growing the ring until the
// far round fit once ran a 30 s run on a 0.1 bit/s link out of memory.
func TestEngineDropInflightReturnsHorizonCutFrames(t *testing.T) {
	const w = 2 * sim.Millisecond
	horizon := 4*w + w/2 // the fifth round is cut short
	for _, k := range []int{1, 2} {
		// Delay W: sent at 3W+W/2+1 → stamped one past the horizon, in the
		// final round's slot. Sent at 2W → stamped 3W, delivered.
		eng, at, _ := boundaryScenario(t, k, w, w, horizon, sim.Time(2*w), sim.Time(3*w+w/2+1))
		if len(at) != 1 || at[0] != sim.Time(3*w) {
			t.Fatalf("k=%d: deliveries %v, want only %v", k, at, sim.Time(3*w))
		}
		if got := eng.inflight(); got != 1 {
			t.Fatalf("k=%d: %d frames in flight after the run, want 1", k, got)
		}
		eng.DropInflight()
		if got := eng.inflight(); got != 0 {
			t.Fatalf("k=%d: %d frames in flight after DropInflight", k, got)
		}

		// Delay 40W: stamped 41W, forty rounds past anything drained.
		eng, at, _ = boundaryScenario(t, k, w, 40*w, horizon, sim.Time(w))
		if len(at) != 0 || eng.inflight() != 1 {
			t.Fatalf("k=%d: deliveries %v, %d in flight, want none and 1", k, at, eng.inflight())
		}
		for i, sh := range eng.shards {
			if n := len(sh.in.slots); n != 8 {
				t.Fatalf("k=%d: shard %d mailbox ring grew to %d slots, want 8", k, i, n)
			}
		}
		eng.DropInflight()
		if got := eng.inflight(); got != 0 {
			t.Fatalf("k=%d: %d frames in flight after DropInflight", k, got)
		}
	}
}

// TestEngineMailboxRingGrowth drives arrivals spread over far more rounds
// than the mailbox ring starts with, posted out of round order, and
// requires every one delivered at its stamp, in stamp order.
func TestEngineMailboxRingGrowth(t *testing.T) {
	const w = sim.Millisecond
	eng := New(2, w)
	src, dst := eng.Shard(0), eng.Shard(1)
	sent := sim.Time(w / 2)
	delays := []sim.Duration{70 * w, 3 * w, 33 * w, w, 9 * w, 130 * w}
	var got, want []string
	for i, delay := range delays {
		p := channel.NewPipe(src.Scheduler(), channel.PipeConfig{Delay: channel.ConstantDelay(delay)}, sim.NewRNG(uint64(i)))
		eng.Wire(src, dst, p, uint32(i))
		p.SetHandler(func(now sim.Time, f *frame.Frame) {
			got = append(got, fmt.Sprintf("%d@%v", f.Seq, now))
			frame.Put(f)
		})
		src.Scheduler().ScheduleDetached(sent, func() {
			g := frame.NewI(uint32(i), 0, nil)
			p.Send(g)
			frame.Put(g)
		})
	}
	for _, i := range []int{3, 1, 4, 2, 0, 5} { // pipes by increasing delay
		want = append(want, fmt.Sprintf("%d@%v", i, sent.Add(delays[i])))
	}
	eng.Run(200*w, nil)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
	if n := eng.inflight(); n != 0 {
		t.Fatalf("%d frames left in flight", n)
	}
}

// TestRunStatsPublish pins the two outlets of the host-time account: the
// shard_* counter families (a nil registry is accepted) and the rendered
// rows lamsconst -rounds prints.
func TestRunStatsPublish(t *testing.T) {
	eng := New(2, sim.Millisecond)
	eng.Run(10*sim.Millisecond, nil)
	st := eng.Stats()
	st.Publish(nil)
	reg := metrics.New()
	st.Publish(reg)
	snap := reg.Snapshot()
	if got := snap.Counter("shard_rounds_total"); got != uint64(st.Rounds) || got == 0 {
		t.Fatalf("shard_rounds_total = %d, rounds = %d", got, st.Rounds)
	}
	if got := snap.Counter("shard_empty_rounds_total"); got != uint64(2*st.Rounds) {
		t.Fatalf("shard_empty_rounds_total = %d, want %d", got, 2*st.Rounds)
	}
	for _, name := range []string{"shard_wall_ns_total", "shard_critical_ns_total", "shard_busy_ns_total", "shard_barrier_wait_ns_total"} {
		if snap.Counter(name) == 0 {
			t.Fatalf("%s is zero", name)
		}
	}
	if _, ok := snap.Counters["shard_messages_drained_total"]; !ok {
		t.Fatal("shard_messages_drained_total not registered")
	}
	if out := st.Render(); !strings.Contains(out, "shards=2 rounds=11 ") || strings.Count(out, "\n") != 3 {
		t.Fatalf("Render:\n%s", out)
	}
}

// TestEngineRehomesFramesAtDrain pins the cross-shard half of the frame's way
// home: a frame taken from the sending shard's free list is Put on the
// receiving shard's goroutine, so the drain must have moved it to that
// shard's list first — under -race this is the test that catches a frame
// going back to a list another goroutine owns.
func TestEngineRehomesFramesAtDrain(t *testing.T) {
	const window = 2 * sim.Millisecond
	eng := New(2, window)
	s0, s1 := eng.Shard(0), eng.Shard(1)
	p := channel.NewPipe(s0.Scheduler(), channel.PipeConfig{RateBps: 1e6, Delay: channel.ConstantDelay(window)}, sim.NewRNG(1))
	eng.Wire(s0, s1, p, 0)
	var arrived []*frame.Frame
	p.SetHandler(func(_ sim.Time, f *frame.Frame) {
		arrived = append(arrived, f)
		frame.Put(f)
	})
	const sends = 50
	for i := 0; i < sends; i++ {
		s0.Scheduler().ScheduleDetached(sim.Time(0).Add(sim.Duration(i)*sim.Millisecond), func() {
			p.Send(frame.NewI(uint32(i), 0, nil))
		})
		// Keep shard 1's own list busy meanwhile, as its local traffic would.
		s1.Scheduler().ScheduleDetached(sim.Time(0).Add(sim.Duration(i)*sim.Millisecond), func() {
			l := channel.Frames(s1.Scheduler())
			f := l.Get(false)
			l.Adopt(f)
			frame.Put(f)
		})
	}
	eng.Run(100*sim.Millisecond, nil)
	eng.DropInflight()
	if len(arrived) != sends {
		t.Fatalf("%d frames arrived, want %d", len(arrived), sends)
	}
	// Everything that crossed now rests on shard 1's list, nothing on shard
	// 0's: pop both and look.
	at1 := map[*frame.Frame]bool{}
	for i := 0; i < sends+1; i++ { // +1: the frame shard 1's own churn allocated
		at1[channel.Frames(s1.Scheduler()).Get(false)] = true
	}
	for _, f := range arrived {
		if !at1[f] {
			t.Fatal("a delivered frame is not on the receiving shard's list")
		}
		if channel.Frames(s0.Scheduler()).Get(false) == f {
			t.Fatal("a delivered frame went back to the sending shard's list")
		}
	}
}
