package txq

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/arq"
	"repro/internal/sim"
)

func ids(dgs []arq.Datagram) []uint64 {
	out := make([]uint64, len(dgs))
	for i, dg := range dgs {
		out[i] = dg.ID
	}
	return out
}

// TestBacklogFIFOAcrossChunks drives the chunk chain through every boundary
// case: pushes and pops interleaved so head and tail sit in different chunks,
// at a boundary, and in the same chunk; the snapshot walk at each step.
func TestBacklogFIFOAcrossChunks(t *testing.T) {
	s := sim.NewScheduler()
	var b backlog
	var want []uint64
	next := uint64(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			b.pushBack(s, arq.Datagram{ID: next, Payload: []byte{1}})
			want = append(want, next)
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if got := b.popFront(s); got.ID != want[0] {
				t.Fatalf("popped %d, want %d", got.ID, want[0])
			}
			want = want[1:]
		}
	}
	check := func() {
		t.Helper()
		if b.n != len(want) {
			t.Fatalf("length %d, want %d", b.n, len(want))
		}
		if got := ids(b.appendTo(nil)); !slices.Equal(got, want) {
			t.Fatalf("snapshot %v, want %v", got, want)
		}
	}
	for _, step := range []struct{ push, pop int }{
		{1, 0}, {0, 1}, // one datagram in, out: the common constellation case
		{chunkSlots, 0}, {1, 0}, // exactly one chunk, then the first slot of a second
		{0, chunkSlots}, // head crosses into the second chunk
		{3*chunkSlots + 5, chunkSlots + 2},
		{2, 2*chunkSlots + 6}, // drains to empty mid-chunk
		{chunkSlots - 1, chunkSlots - 2}, {5, 6},
	} {
		push(step.push)
		check()
		pop(step.pop)
		check()
	}
	if b.n != 0 || b.head != nil || b.tail != nil {
		t.Fatal("a drained backlog still holds a chunk")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("popping an empty backlog did not panic")
		}
	}()
	b.popFront(s)
}

// TestBacklogChunksReturnZeroed pins the two halves of the storage contract:
// a popped slot no longer pins its payload, and a drained chunk goes back to
// the run memory — so a backlog of any depth costs a warm run nothing.
func TestBacklogChunksReturnZeroed(t *testing.T) {
	s := sim.NewScheduler()
	var b backlog
	const n = 4*chunkSlots + 3
	one := []byte{1}
	fill := func() {
		for i := 0; i < n; i++ {
			b.pushBack(s, arq.Datagram{ID: uint64(i) + 1, Payload: one, EnqueuedAt: 5})
		}
	}
	fill()
	head := b.head
	b.popFront(s)
	if dg := head.dg[0]; dg.Payload != nil || dg.ID != 0 || dg.EnqueuedAt != 0 {
		t.Fatal("a popped slot still holds its datagram")
	}
	for b.n > 0 {
		b.popFront(s)
	}
	for i := 0; i < 5; i++ {
		c := chunks.Get(s)
		if !reflect.DeepEqual(*c, chunk{}) {
			t.Fatalf("chunk %d came back from the run memory not zeroed", i)
		}
		defer chunks.Put(s, c)
	}
	if avg := testing.AllocsPerRun(20, func() {
		fill()
		for b.n > 0 {
			b.popFront(s)
		}
	}); avg != 0 {
		t.Fatalf("a warm fill-and-drain of %d datagrams allocates %.1f/op, want 0", n, avg)
	}
}

// TestInFlightWindowFromRunMemory pins the in-flight list's first capacity:
// it comes from the scheduler's run memory, goes back when the list empties
// while still on it, and is never shared by two lists at once.
func TestInFlightWindowFromRunMemory(t *testing.T) {
	sched := sim.NewScheduler()
	var m arq.Metrics
	newQueue := func() *Queue {
		q := New(sched, &m, 0, debt, func() {}, nil, nil, nil)
		return &q
	}
	admit := func(q *Queue, n int) {
		for i := 0; i < n; i++ {
			q.Enqueue(arq.Datagram{ID: uint64(i)})
			q.Admit(sched.Now())
		}
	}
	drain := func(q *Queue) {
		q.Sweep(func(e *Entry) bool { q.Release(sched.Now(), e); return false })
	}
	a, b, c := newQueue(), newQueue(), newQueue()
	admit(a, 2)
	if cap(a.InFlight()) != windowSlots {
		t.Fatalf("first capacity %d, want the %d-entry window", cap(a.InFlight()), windowSlots)
	}
	first := &a.InFlight()[0]
	admit(b, 1)
	if &b.InFlight()[0] == first {
		t.Fatal("two live in-flight lists share one window")
	}
	drain(a)
	if a.InFlight() != nil {
		t.Fatal("an emptied list kept its window")
	}
	admit(c, 1)
	if &c.InFlight()[0] != first {
		t.Fatal("the next list on the scheduler did not get the window back")
	}
	// A list that outgrew its window keeps what append gave it.
	admit(a, windowSlots+1)
	drain(a)
	if a.InFlight() == nil || cap(a.InFlight()) <= windowSlots {
		t.Fatal("a list that outgrew its window did not keep its own array")
	}
}
