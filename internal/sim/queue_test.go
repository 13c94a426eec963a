package sim

import (
	"reflect"
	"slices"
	"testing"
)

// queued stands in for a datagram: an ID, a payload the queue must not pin
// once popped, and a stamp.
type queued struct {
	id      uint64
	payload []byte
	at      Time
}

var queuedChunks = NewFreeList[QueueChunk[queued]]()

func queuedIDs(vs []queued) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = v.id
	}
	return out
}

// TestQueueFIFOAcrossChunks drives the chunk chain through every boundary
// case: pushes and pops interleaved so head and tail sit in different chunks,
// at a boundary, and in the same chunk; the snapshot walk at each step.
func TestQueueFIFOAcrossChunks(t *testing.T) {
	q := NewQueue(NewScheduler(), queuedChunks)
	var want []uint64
	next := uint64(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.PushBack(queued{id: next, payload: []byte{1}})
			want = append(want, next)
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if got := q.Front(); got.id != want[0] {
				t.Fatalf("front %d, want %d", got.id, want[0])
			}
			if got := q.PopFront(); got.id != want[0] {
				t.Fatalf("popped %d, want %d", got.id, want[0])
			}
			want = want[1:]
		}
	}
	check := func() {
		t.Helper()
		if q.Len() != len(want) {
			t.Fatalf("length %d, want %d", q.Len(), len(want))
		}
		if got := queuedIDs(q.AppendTo(nil)); !slices.Equal(got, want) {
			t.Fatalf("snapshot %v, want %v", got, want)
		}
	}
	for _, step := range []struct{ push, pop int }{
		{1, 0}, {0, 1}, // one element in, out: the common constellation case
		{queueSlots, 0}, {1, 0}, // exactly one chunk, then the first slot of a second
		{0, queueSlots}, // head crosses into the second chunk
		{3*queueSlots + 5, queueSlots + 2},
		{2, 2*queueSlots + 6}, // drains to empty mid-chunk
		{queueSlots - 1, queueSlots - 2}, {5, 6},
	} {
		push(step.push)
		check()
		pop(step.pop)
		check()
	}
	if q.Len() != 0 || q.head != nil || q.tail != nil {
		t.Fatal("a drained queue still holds a chunk")
	}
	for name, op := range map[string]func(){"PopFront": func() { q.PopFront() }, "Front": func() { q.Front() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s of an empty queue did not panic", name)
				}
			}()
			op()
		}()
	}
}

var (
	intChunks = NewFreeList[QueueChunk[int]]()
	ptrChunks = NewFreeList[QueueChunk[*int]]()
)

func TestQueueFIFOOrder(t *testing.T) {
	q := NewQueue(NewScheduler(), intChunks)
	for i := 0; i < 100; i++ {
		q.PushBack(i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d, want 100", q.Len())
	}
	for i := 0; i < 100; i++ {
		if got := q.PopFront(); got != i {
			t.Fatalf("PopFront = %d, want %d", got, i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", q.Len())
	}
}

// TestQueueWrapAround interleaves pushes and pops so the head walks through
// many chunks, each handed back and taken again as the tail moves on.
func TestQueueWrapAround(t *testing.T) {
	q := NewQueue(NewScheduler(), intChunks)
	next, want := 0, 0
	for i := 0; i < 1000; i++ {
		q.PushBack(next)
		next++
		q.PushBack(next)
		next++
		if got := q.PopFront(); got != want {
			t.Fatalf("PopFront = %d, want %d", got, want)
		}
		want++
	}
	for q.Len() > 0 {
		if got := q.PopFront(); got != want {
			t.Fatalf("PopFront = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d elements, want %d", want, next)
	}
}

func TestQueuePopZeroesSlot(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s, ptrChunks)
	x := new(int)
	q.PushBack(x)
	q.PushBack(x)
	q.PopFront()
	// The vacated slot must not pin the pointer while its chunk is live.
	if q.head.v[0] != nil {
		t.Fatal("PopFront left pointer in vacated slot")
	}
	q.PopFront()
	// Nor once the drained chunk rests in the run memory.
	c := ptrChunks.Get(s)
	defer ptrChunks.Put(s, c)
	for i := range c.v {
		if c.v[i] != nil {
			t.Fatalf("a drained chunk kept a pointer in slot %d", i)
		}
	}
}

func TestQueueSteadyStateNoAllocs(t *testing.T) {
	q := NewQueue(NewScheduler(), intChunks)
	for i := 0; i < 64; i++ {
		q.PushBack(i)
	}
	for q.Len() > 0 {
		q.PopFront()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			q.PushBack(i)
		}
		for i := 0; i < 64; i++ {
			q.PopFront()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %.1f/run, want 0", allocs)
	}
}

// TestQueueChunksReturnZeroed pins the two halves of the storage contract: a
// popped slot no longer pins its payload, and a drained chunk goes back to
// the run memory — so a queue of any depth costs a warm run nothing.
func TestQueueChunksReturnZeroed(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s, queuedChunks)
	const n = 4*queueSlots + 3
	one := []byte{1}
	fill := func() {
		for i := 0; i < n; i++ {
			q.PushBack(queued{id: uint64(i) + 1, payload: one, at: 5})
		}
	}
	fill()
	head := q.head
	q.PopFront()
	if v := head.v[0]; v.payload != nil || v.id != 0 || v.at != 0 {
		t.Fatal("a popped slot still holds its element")
	}
	for q.Len() > 0 {
		q.PopFront()
	}
	for i := 0; i < 5; i++ {
		c := queuedChunks.Get(s)
		if !reflect.DeepEqual(*c, QueueChunk[queued]{}) {
			t.Fatalf("chunk %d came back from the run memory not zeroed", i)
		}
		defer queuedChunks.Put(s, c)
	}
	if avg := testing.AllocsPerRun(20, func() {
		fill()
		for q.Len() > 0 {
			q.PopFront()
		}
	}); avg != 0 {
		t.Fatalf("a warm fill-and-drain of %d elements allocates %.1f/op, want 0", n, avg)
	}
}
