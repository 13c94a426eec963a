package workload

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/arq"
	"repro/internal/sim"
)

// mustPanic runs fn and returns what it panicked with.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg = fmt.Sprint(r)
	}()
	fn()
	return
}

// TestArenaAllocZeroedExactCap pins the zero-page contract: every payload is
// all-zero, exactly as long as asked, with no capacity to append into — and
// two payloads are views of the same bytes, which is the point.
func TestArenaAllocZeroedExactCap(t *testing.T) {
	var a Arena
	p1 := a.Alloc(100)
	p2 := a.Alloc(1000)
	if len(p1) != 100 || len(p2) != 1000 {
		t.Fatalf("lengths %d, %d, want 100, 1000", len(p1), len(p2))
	}
	if cap(p1) != 100 || cap(p2) != 1000 {
		t.Fatalf("caps %d, %d, want exactly 100, 1000 (an append must not reach the page)", cap(p1), cap(p2))
	}
	for i, b := range p2 {
		if b != 0 {
			t.Fatalf("p2[%d] = %#x, want 0", i, b)
		}
	}
	if &p1[0] != &p2[0] {
		t.Fatal("two payloads are not views of one page")
	}
	if q := append(p1, 1); &q[0] == &p1[0] {
		t.Fatal("append wrote into the page")
	}
	if len(a.Alloc(0)) != 0 {
		t.Fatal("empty payload is not empty")
	}
	a.Reset()
	mustBeZero(zeroPage[:])
}

// TestArenaResetDetectsWrites pins the enforcement: a consumer that writes to
// a payload makes the run's Reset (and the whole-page check) panic with the rule.
func TestArenaResetDetectsWrites(t *testing.T) {
	var a Arena
	p := a.Alloc(64)
	a.Reset() // untouched: fine
	p = a.Alloc(64)
	p[17] = 0xFF
	defer func() { p[17] = 0 }() // the page is the whole process's
	for name, check := range map[string]func(){"Reset": a.Reset, "zero page": func() { mustBeZero(zeroPage[:]) }} {
		msg := mustPanic(t, check)
		if !strings.Contains(msg, "byte 17") || !strings.Contains(msg, "immutable") {
			t.Fatalf("%s panicked with %q, want the byte and the payload rule", name, msg)
		}
	}
}

// TestArenaOversized pins the request beyond the shared page: the arena grows
// a page of its own, still all-zero and exact, reuses it, and checks it.
func TestArenaOversized(t *testing.T) {
	var a Arena
	n := len(zeroPage) + 1
	big := a.Alloc(n)
	if len(big) != n || cap(big) != n {
		t.Fatalf("oversized alloc len %d cap %d, want %d", len(big), cap(big), n)
	}
	if again := a.Alloc(n); &again[0] != &big[0] {
		t.Fatal("second oversized request did not reuse the arena's page")
	}
	if small := a.Alloc(8); &small[0] != &zeroPage[0] {
		t.Fatal("a request that fits did not come from the shared page")
	}
	big[n-1] = 1
	if msg := mustPanic(t, a.Reset); !strings.Contains(msg, "immutable") {
		t.Fatalf("Reset panicked with %q", msg)
	}
	big[n-1] = 0
	a.Reset()
}

func TestArenaSteadyStateNoAllocs(t *testing.T) {
	var a Arena
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			a.Alloc(1000)
		}
		a.Reset()
	})
	if allocs != 0 {
		t.Fatalf("arena allocated %.1f/run, want 0", allocs)
	}
}

// TestGeneratorWithoutArenaNoAllocs pins the default: a generator nobody gave
// an arena hands out the same zero page, not make([]byte, size) per datagram.
func TestGeneratorWithoutArenaNoAllocs(t *testing.T) {
	sched := sim.NewScheduler()
	var last []byte
	g := NewConstantRate(sched, func(dg arq.Datagram) bool { last = dg.Payload; return true }, sim.Millisecond, 1000, -1)
	sched.RunUntil(sim.Time(0).Add(100 * sim.Millisecond)) // warm the scheduler freelist
	allocs := testing.AllocsPerRun(10, func() {
		sched.RunUntil(sched.Now().Add(100 * sim.Millisecond))
	})
	if allocs != 0 {
		t.Fatalf("arena-less workload tick allocated %.1f/run, want 0", allocs)
	}
	if len(last) != 1000 || cap(last) != 1000 || &last[0] != &zeroPage[0] {
		t.Fatalf("payload len %d cap %d, want a 1000-byte view of the zero page", len(last), cap(last))
	}
	g.Stop()
}

// TestGeneratorTickNoAllocs pins the zero-alloc workload tick: with an
// arena attached, offering a datagram through a consuming sink allocates
// nothing in steady state (ISSUE 6 satellite).
func TestGeneratorTickNoAllocs(t *testing.T) {
	sched := sim.NewScheduler()
	var arena Arena
	sink := func(dg arq.Datagram) bool { return true }
	g := NewConstantRate(sched, sink, sim.Millisecond, 1000, -1)
	g.UseArena(&arena)
	// Warm the scheduler freelist.
	sched.RunUntil(sim.Time(0).Add(100 * sim.Millisecond))
	arena.Reset()
	allocs := testing.AllocsPerRun(10, func() {
		sched.RunUntil(sched.Now().Add(100 * sim.Millisecond))
		arena.Reset()
	})
	if allocs != 0 {
		t.Fatalf("workload tick allocated %.1f/run, want 0", allocs)
	}
}

// TestGeneratorRefusalReusesPayload verifies a refused offer retries with
// the same backing payload rather than a fresh allocation.
func TestGeneratorRefusalReusesPayload(t *testing.T) {
	sched := sim.NewScheduler()
	var arena Arena
	var taken []arq.Datagram
	refuse := true
	sink := func(dg arq.Datagram) bool {
		if refuse {
			return false
		}
		taken = append(taken, dg)
		return true
	}
	g := NewConstantRate(sched, sink, sim.Millisecond, 100, 2)
	g.UseArena(&arena)
	sched.RunUntil(sim.Time(0).Add(3 * sim.Millisecond))
	refused := g.Refused
	if refused == 0 {
		t.Fatal("sink never refused")
	}
	refuse = false
	sched.RunUntil(sim.Time(0).Add(10 * sim.Millisecond))
	if len(taken) != 2 {
		t.Fatalf("delivered %d datagrams, want 2", len(taken))
	}
	// A refused offer costs nothing to retry: the retry carries the same ID
	// and the same bytes, and the arena never handed out more than one
	// payload's worth.
	if taken[0].ID != 0 || taken[1].ID != 1 {
		t.Fatalf("IDs %d, %d after refusals, want 0, 1", taken[0].ID, taken[1].ID)
	}
	if &taken[0].Payload[0] != &taken[1].Payload[0] || arena.high != 100 {
		t.Fatalf("refusals did not reuse the payload (arena high-water %d, want 100)", arena.high)
	}
}
