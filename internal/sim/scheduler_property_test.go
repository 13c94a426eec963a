package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// The timer wheel must be observationally identical to a textbook
// min-ordered heap with FIFO tie-breaking — that heap IS the determinism
// contract (DESIGN.md §8). This file drives both through random
// interleavings of schedule / cancel / reschedule, including same-instant
// bursts and far-future events on the wheel's top levels, and
// requires the full (id, firing-time) sequences to match exactly.

type refEvent struct {
	at   Time
	seq  uint64
	id   int
	dead bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type firing struct {
	id int
	at Time
}

// spawnChild reports whether an event deterministically schedules a child
// when it fires, and at what offset. Only primary ids spawn (children get
// ids >= 1e9), so the recursion is one level deep and both executions agree
// without sharing state.
func spawnChild(id int) (childID int, delta Duration, ok bool) {
	if id >= 1_000_000_000 || id%17 != 0 {
		return 0, 0, false
	}
	return id + 1_000_000_000, Duration(id % 5), true
}

func TestSchedulerMatchesReferenceHeap(t *testing.T) {
	// Far-future instants land on the wheel's two top levels: 2^55 ns ahead of
	// the clock, or near the top of sim.Time while the clock is still below it.
	const farJump, nearTop = Time(1) << 55, Time(1) << 62

	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))

		s := NewScheduler()
		var got []firing

		var ref refHeap
		var refSeq uint64
		refNow := Time(0)
		var want []firing

		// live maps primary ids to their wheel handles and ref nodes so
		// cancel/reschedule hit the same victim on both sides.
		handles := map[int]Handle{}
		nodes := map[int]*refEvent{}
		liveIDs := []int{}
		nextID := 1
		lastAt := Time(0)

		far := func(jitter int) Time {
			if refNow < nearTop && rng.Intn(2) == 0 {
				return nearTop + Time(rng.Intn(jitter))
			}
			return refNow + farJump + Time(rng.Intn(jitter))
		}

		schedule := func(at Time) {
			id := nextID
			nextID++
			var fire func()
			fire = func() {
				got = append(got, firing{id, s.Now()})
				if cid, d, ok := spawnChild(id); ok {
					child := cid
					s.Schedule(s.Now().Add(d), func() {
						got = append(got, firing{child, s.Now()})
					})
				}
			}
			handles[id] = s.Schedule(at, fire)
			n := &refEvent{at: at, seq: refSeq, id: id}
			refSeq++
			heap.Push(&ref, n)
			nodes[id] = n
			liveIDs = append(liveIDs, id)
			lastAt = at
		}

		cancel := func() {
			if len(liveIDs) == 0 {
				return
			}
			i := rng.Intn(len(liveIDs))
			id := liveIDs[i]
			liveIDs[i] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
			handles[id].Cancel()
			nodes[id].dead = true
			delete(handles, id)
			delete(nodes, id)
		}

		pickAt := func() Time {
			switch rng.Intn(10) {
			case 0, 1: // same-instant burst: reuse the last scheduled instant
				if lastAt >= refNow {
					return lastAt
				}
				return refNow
			case 2: // right now
				return refNow
			case 3: // far future: the top wheel levels
				return far(1000)
			case 4: // beyond L0 but inside the wheel levels
				return refNow + Time(1<<20+rng.Intn(1<<22))
			default: // near future, dense in L0
				return refNow + Time(rng.Intn(4096))
			}
		}

		// runRef fires every pending reference event at or before deadline,
		// replicating the deterministic child-spawning rule.
		runRef := func(deadline Time) {
			for len(ref) > 0 && ref[0].at <= deadline {
				e := heap.Pop(&ref).(*refEvent)
				if e.dead {
					continue
				}
				if e.id < 1_000_000_000 {
					delete(handles, e.id)
					delete(nodes, e.id)
					for i, id := range liveIDs {
						if id == e.id {
							liveIDs[i] = liveIDs[len(liveIDs)-1]
							liveIDs = liveIDs[:len(liveIDs)-1]
							break
						}
					}
				}
				want = append(want, firing{e.id, e.at})
				if cid, d, ok := spawnChild(e.id); ok {
					heap.Push(&ref, &refEvent{at: e.at.Add(d), seq: refSeq, id: cid})
					refSeq++
				}
			}
			if deadline > refNow {
				refNow = deadline
			}
		}

		for round := 0; round < 40; round++ {
			for op := 0; op < 30; op++ {
				switch r := rng.Intn(100); {
				case r < 65:
					schedule(pickAt())
				case r < 82:
					cancel()
				default: // reschedule: cancel one, schedule a fresh instant
					cancel()
					schedule(pickAt())
				}
			}
			var deadline Time
			if rng.Intn(8) == 0 {
				// Jump far ahead, cascading the top levels on the way.
				deadline = far(2000)
			} else {
				deadline = refNow + Time(rng.Intn(6000))
			}
			s.RunUntil(deadline)
			runRef(deadline)
			if s.Now() != refNow {
				t.Fatalf("seed %d round %d: now %d != ref %d", seed, round, s.Now(), refNow)
			}
		}

		// Drain everything still pending, top levels included.
		s.Run()
		runRef(Never)

		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d: got (id=%d, at=%d), want (id=%d, at=%d)",
					seed, i, got[i].id, got[i].at, want[i].id, want[i].at)
			}
		}
	}
}
