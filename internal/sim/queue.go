package sim

// queueSlots sizes a queue chunk: with its link, 31 pointers fill the
// 256-byte size class and 31 datagrams fit the 1,280-byte one. A saturating
// source parks its whole offer in one queue (100,000 datagrams at the
// paper's canonical point), so a queue must not regrow and copy as a ring
// does; most queues of a constellation hold one element for an instant, so a
// chunk must not cost more than a small ring — at 128 slots the
// 1,024-satellite run's resident set grew by 3 MiB.
const queueSlots = 31

// QueueChunk is one link of a Queue's storage. Each element type gets one
// free list of them, declared once per package with
// NewFreeList[QueueChunk[T]]().
type QueueChunk[T any] struct {
	next *QueueChunk[T]
	v    [queueSlots]T
}

// Queue is the FIFO of a simulated buffer: a chain of fixed-size chunks
// taken from the scheduler's run memory and handed back as they drain, the
// last one included, so an idle queue holds no storage and a finished run's
// chunks serve the next. Not safe for concurrent use; like everything built
// on a scheduler it is dead after the scheduler's Recycle.
type Queue[T any] struct {
	free       *[]*QueueChunk[T] // the chunk free list, resolved once
	head, tail *QueueChunk[T]
	hi, ti     int // next slot to pop in head, next slot to fill in tail
	n          int
}

// NewQueue returns an empty queue whose chunks come from chunks on s's run
// memory.
func NewQueue[T any](s *Scheduler, chunks FreeList[QueueChunk[T]]) Queue[T] {
	return Queue[T]{free: chunks.items.Of(s)}
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// PushBack appends v at the tail.
func (q *Queue[T]) PushBack(v T) {
	if q.tail == nil || q.ti == queueSlots {
		c := pop(q.free)
		if q.tail == nil {
			q.head, q.hi = c, 0
		} else {
			q.tail.next = c
		}
		q.tail, q.ti = c, 0
	}
	q.tail.v[q.ti] = v
	q.ti++
	q.n++
}

// PopFront removes and returns the front element. The vacated slot is
// zeroed, so neither a queued chunk nor a resting one pins what it held.
// Panics on an empty queue.
func (q *Queue[T]) PopFront() T {
	if q.n == 0 {
		panic("sim: pop from empty queue")
	}
	c := q.head
	v := c.v[q.hi]
	var zero T
	c.v[q.hi] = zero
	q.hi++
	q.n--
	if q.hi == queueSlots || q.n == 0 {
		q.head, q.hi = c.next, 0
		if q.head == nil {
			q.tail = nil
		}
		c.next = nil
		push(q.free, c)
	}
	return v
}

// Front returns the front element without removing it. Panics on an empty
// queue.
func (q *Queue[T]) Front() T {
	if q.n == 0 {
		panic("sim: front of empty queue")
	}
	return q.head.v[q.hi]
}

// AppendTo appends the queued elements to out, oldest first.
func (q *Queue[T]) AppendTo(out []T) []T {
	lo := q.hi
	for c := q.head; c != nil; c = c.next {
		hi := queueSlots
		if c == q.tail {
			hi = q.ti
		}
		out = append(out, c.v[lo:hi]...)
		lo = 0
	}
	return out
}
