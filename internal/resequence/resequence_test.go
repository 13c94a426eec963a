package resequence

import (
	"testing"
	"testing/quick"

	"repro/internal/arq"
	"repro/internal/sim"
)

func collector() (*Resequencer, *[]uint64) {
	var out []uint64
	r := New(sim.NewScheduler(), func(_ sim.Time, dg arq.Datagram) { out = append(out, dg.ID) })
	return r, &out
}

func TestInOrderPassThrough(t *testing.T) {
	r, out := collector()
	for i := uint64(0); i < 10; i++ {
		r.Push(0, arq.Datagram{ID: i})
	}
	if len(*out) != 10 {
		t.Fatalf("released %d", len(*out))
	}
	for i, id := range *out {
		if id != uint64(i) {
			t.Fatalf("order broken at %d", i)
		}
	}
	if r.n != 0 {
		t.Fatal("buffer not empty")
	}
}

func TestReordering(t *testing.T) {
	r, out := collector()
	for _, id := range []uint64{2, 0, 3, 1, 4} {
		r.Push(0, arq.Datagram{ID: id})
	}
	want := []uint64{0, 1, 2, 3, 4}
	if len(*out) != len(want) {
		t.Fatalf("released %v", *out)
	}
	for i := range want {
		if (*out)[i] != want[i] {
			t.Fatalf("released %v, want %v", *out, want)
		}
	}
	if r.Stats.MaxGap.Value() != 2 {
		t.Fatalf("max gap = %d, want 2", r.Stats.MaxGap.Value())
	}
}

func TestDuplicateSuppression(t *testing.T) {
	r, out := collector()
	r.Push(0, arq.Datagram{ID: 0})
	r.Push(0, arq.Datagram{ID: 0}) // dup of released
	r.Push(0, arq.Datagram{ID: 2})
	r.Push(0, arq.Datagram{ID: 2}) // dup of held
	r.Push(0, arq.Datagram{ID: 1})
	if got := r.Stats.Duplicates.Value(); got != 2 {
		t.Fatalf("duplicates = %d, want 2", got)
	}
	if len(*out) != 3 {
		t.Fatalf("released %v", *out)
	}
}

func TestExactlyOnceInOrderProperty(t *testing.T) {
	// Property: any permutation with arbitrary duplications releases each
	// ID exactly once, in order.
	f := func(seed uint16, n uint8, dupEvery uint8) bool {
		count := int(n%50) + 1
		rng := sim.NewRNG(uint64(seed))
		perm := rng.Perm(count)
		r, out := collector()
		for _, idx := range perm {
			r.Push(0, arq.Datagram{ID: uint64(idx)})
			if dupEvery > 0 && idx%int(dupEvery%7+1) == 0 {
				r.Push(0, arq.Datagram{ID: uint64(idx)}) // duplicate
			}
		}
		if len(*out) != count {
			return false
		}
		for i, id := range *out {
			if id != uint64(i) {
				return false
			}
		}
		return r.n == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowOverflowForcesRelease(t *testing.T) {
	r, out := collector()
	r.Window = 3
	// ID 0 never arrives; 1..4 fill past the window.
	for _, id := range []uint64{1, 2, 3, 4} {
		r.Push(0, arq.Datagram{ID: id})
	}
	if len(*out) == 0 {
		t.Fatal("overflow did not force release")
	}
	if (*out)[0] != 1 {
		t.Fatalf("forced release started at %d, want 1", (*out)[0])
	}
	// Late arrival of 0 is now a stale duplicate.
	r.Push(0, arq.Datagram{ID: 0})
	if r.Stats.Duplicates.Value() != 1 {
		t.Fatal("late arrival below next not counted as duplicate")
	}
}

// TestFlush releases everything held, in ID order and skipping the gaps,
// through the overflow path's forceLowest.
func TestFlush(t *testing.T) {
	r, out := collector()
	for _, id := range []uint64{5, 2, 9} {
		r.Push(0, arq.Datagram{ID: id})
	}
	if len(*out) != 0 {
		t.Fatal("nothing should be released yet")
	}
	for r.n > 0 {
		r.forceLowest(0)
	}
	want := []uint64{2, 5, 9}
	if len(*out) != 3 {
		t.Fatalf("flush released %v", *out)
	}
	for i := range want {
		if (*out)[i] != want[i] {
			t.Fatalf("flush order %v, want %v", *out, want)
		}
	}
	if r.n != 0 {
		t.Fatal("flush left datagrams")
	}
}

func TestSummaryAndNilCallback(t *testing.T) {
	r, _ := collector()
	r.Push(0, arq.Datagram{ID: 0})
	if r.Summary() == "" {
		t.Fatal("empty summary")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback accepted")
		}
	}()
	New(sim.NewScheduler(), nil)
}
