package txq

import (
	"repro/internal/arq"
	"repro/internal/sim"
)

// chunkSlots sizes a backlog chunk: 31 datagrams and the link fill the
// 1,280-byte size class exactly. A saturating source parks its whole offer
// here (100,000 datagrams at the paper's canonical point), so the backlog
// must not regrow and copy as a ring does; most queues of a constellation
// hold one datagram for an instant, so a chunk must not cost more than the
// small ring it replaces — at 128 slots the 1,024-satellite run's resident
// set grew by 3 MiB.
const chunkSlots = 31

type chunk struct {
	next *chunk
	dg   [chunkSlots]arq.Datagram
}

// backlog is the FIFO of accepted datagrams: a chain of fixed-size chunks
// taken from the scheduler's run memory and handed back as they drain, the
// last one included, so an idle queue holds no storage and a finished run's
// chunks serve the next.
type backlog struct {
	head, tail *chunk
	hi, ti     int // next slot to pop in head, next slot to fill in tail
	n          int
}

func (b *backlog) pushBack(s *sim.Scheduler, dg arq.Datagram) {
	if b.tail == nil || b.ti == chunkSlots {
		c := chunks.Get(s)
		if b.tail == nil {
			b.head, b.hi = c, 0
		} else {
			b.tail.next = c
		}
		b.tail, b.ti = c, 0
	}
	b.tail.dg[b.ti] = dg
	b.ti++
	b.n++
}

// popFront removes the oldest datagram. The vacated slot is zeroed, so
// neither a queued chunk nor a resting one pins a payload.
func (b *backlog) popFront(s *sim.Scheduler) arq.Datagram {
	if b.n == 0 {
		panic("txq: pop from empty backlog")
	}
	c := b.head
	dg := c.dg[b.hi]
	c.dg[b.hi] = arq.Datagram{}
	b.hi++
	b.n--
	if b.hi == chunkSlots || b.n == 0 {
		b.head, b.hi = c.next, 0
		if b.head == nil {
			b.tail = nil
		}
		c.next = nil
		chunks.Put(s, c)
	}
	return dg
}

// appendTo appends the queued datagrams to out, oldest first.
func (b *backlog) appendTo(out []arq.Datagram) []arq.Datagram {
	lo := b.hi
	for c := b.head; c != nil; c = c.next {
		hi := chunkSlots
		if c == b.tail {
			hi = b.ti
		}
		out = append(out, c.dg[lo:hi]...)
		lo = 0
	}
	return out
}
