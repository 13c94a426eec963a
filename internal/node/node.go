package node

import (
	"fmt"
	"slices"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/resequence"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Stats counts network-layer activity at one node.
type Stats struct {
	Originated stats.Counter // packets this node sourced
	Forwarded  stats.Counter // packets relayed toward another node
	Delivered  stats.Counter // packets released in order to OnDeliver
	NoRoute    stats.Counter // packets dropped for lack of a route
	BufferFull stats.Counter // packets refused by a link's sending buffer
	LinkDown   stats.Counter // packets dropped on a failed link
	Rerouted   stats.Counter // packets reclaimed from failed links and re-dispatched
	Malformed  stats.Counter // arrivals too short to carry a packet header, dropped
	Parked     stats.Counter // forwards the next hop refused, held for RecomputeRoutes
}

// outLink is the transmitting side of one neighbor adjacency.
type outLink struct {
	peer      ID
	pair      *arq.Pair
	nextID    uint64 // per-link DLC datagram IDs
	failed    bool
	reclaimed bool // stranded datagrams already pulled back
}

// Node is a store-and-forward satellite DCE.
type Node struct {
	id    ID
	sched *sim.Scheduler
	eng   arq.EngineConfig

	// links holds one outgoing session per neighbor, in neighbor-ID order:
	// every walk over a node's adjacencies is deterministic by construction.
	links []*outLink
	// The three tables below are indexed by node ID and grow from the run
	// memory's arrays to the largest ID stored (see entry). routes[dst] is
	// 1 + the index in links of the next hop toward dst — two bytes per
	// destination — and 0, like a dst beyond the table, means no route.
	routes []uint16
	reseq  []*resequence.Resequencer // per source
	seqTo  []uint64                  // per-destination originating sequence numbers

	// carver is the scheduler's packet carver and slabs the chain of slabs
	// this node opened in it (see packetBuf).
	carver *carver
	slabs  *slab

	// OnDeliver receives in-order, exactly-once packets addressed to this
	// node. May be nil.
	OnDeliver func(now sim.Time, pkt Packet)

	// release is n.released bound once, shared by every resequencer.
	release func(now sim.Time, dg arq.Datagram)

	// pendingReroute holds encoded packets reclaimed from failed links or
	// refused by the next hop, until the next RecomputeRoutes pass
	// re-dispatches them.
	pendingReroute [][]byte

	Stats Stats
}

// New constructs a node. eng, a registered engine's configuration,
// parameterizes every DLC link the node terminates: any engine works, so an
// HDLC baseline can run the same multi-hop topologies as LAMS-DLC.
func New(sched *sim.Scheduler, id ID, eng arq.EngineConfig) *Node {
	if eng == nil {
		panic("node: nil engine configuration")
	}
	if err := eng.Validate(); err != nil {
		panic(err)
	}
	n := &Node{id: id, sched: sched, eng: eng, carver: carvers.Of(sched)}
	n.release = n.released
	return n
}

// The tables' arrays, from the scheduler's run memory.
var (
	routeTables = sim.NewSlices[uint16]()
	reseqTables = sim.NewSlices[*resequence.Resequencer]()
	seqTables   = sim.NewSlices[uint64]()
)

// entry returns &(*t)[id], growing the table from arrays to reach it. A
// table only ever grows, and an array from the run memory is zero beyond the
// length it was handed out at, so the new entries are zero.
func entry[T any](s *sim.Scheduler, arrays sim.Slices[T], t *[]T, id ID) *T {
	if grow := int(id) + 1 - len(*t); grow > 0 {
		*t = arrays.Grow(s, *t, grow)[:int(id)+1]
	}
	return &(*t)[id]
}

// slot returns &(*t)[id], growing the table to reach it.
func slot[T any](t *[]T, id ID) *T {
	if grow := int(id) + 1 - len(*t); grow > 0 {
		*t = append(*t, make([]T, grow)...)
	}
	return &(*t)[id]
}

// Packets are carved from slabs on the scheduler's run memory. A packet
// buffer can be reused only once no hop, frame or resequencer can still reach
// it, and the end of a run is the one point where that is known for all of
// them, so a slab is never reused within its run: the node that opens one
// keeps it on its chain, and Recycle hands the chain back. A node that is
// never recycled takes its slabs to the collector.
type slab struct {
	next *slab
	b    [slabBytes]byte
}

// slabBytes fills a 16 KiB allocation with a slab and its link.
const slabBytes = 16<<10 - 8

// carver is one scheduler's current slab and how much of it is carved.
type carver struct {
	cur  *slab
	used int
}

var (
	slabs   = sim.NewFreeList[slab]()
	carvers = sim.NewLocal[carver]()
)

// packetBuf returns a buffer of size bytes for a packet n originates. Every
// byte of it is written by the encoding, so a slab is not cleared on reuse.
func (n *Node) packetBuf(size int) []byte {
	if size > slabBytes {
		return make([]byte, size)
	}
	c := n.carver
	if c.cur == nil || size > slabBytes-c.used {
		sl := slabs.Get(n.sched)
		sl.next, n.slabs = n.slabs, sl
		c.cur, c.used = sl, 0
	}
	buf := c.cur.b[c.used : c.used+size : c.used+size]
	c.used += size
	return buf
}

// linkIndex finds the outgoing link toward neighbor in the sorted links.
func (n *Node) linkIndex(neighbor ID) (int, bool) {
	return slices.BinarySearchFunc(n.links, neighbor, func(ol *outLink, id ID) int {
		return int(ol.peer) - int(id)
	})
}

// SetRoute installs a static next-hop route. nextHop must already be a
// connected neighbor; a route through anything else is no route.
func (n *Node) SetRoute(dst, nextHop ID) {
	hop := uint16(0)
	if i, ok := n.linkIndex(nextHop); ok {
		hop = uint16(i + 1)
	}
	*entry(n.sched, routeTables, &n.routes, dst) = hop
}

// LinkMetrics exposes the DLC metrics of the outgoing link to a neighbor.
func (n *Node) LinkMetrics(neighbor ID) *arq.Metrics {
	if i, ok := n.linkIndex(neighbor); ok {
		return n.links[i].pair.Metrics()
	}
	return nil
}

// Connect joins a and b with a pair of unidirectional DLC sessions
// (data a→b and data b→a), each over its own full-duplex simulated link
// with the given pipe configuration, and wires each session's deliveries
// into the receiving node's network layer. It returns the two underlying
// links (a→b data first) so tests can inject failures.
func Connect(sched *sim.Scheduler, a, b *Node, pipe channel.PipeConfig, rng *sim.RNG) (abData, baData *channel.Link) {
	abData = channel.NewLink(sched, pipe, rng.Split())
	baData = channel.NewLink(sched, pipe, rng.Split())
	a.AttachSplit(b, abData, a.eng)
	b.AttachSplit(a, baData, b.eng)
	return abData, baData
}

// AttachSplit creates the outgoing DLC session toward neighbor over link.
// The session's receiver logically lives at the neighbor: its deliveries
// feed the neighbor's network layer. In a topology partitioned across
// schedulers (the shard engine) the sender entity therefore runs on this
// node's scheduler and the receiver entity — with the deliver callback — on
// the neighbor's. eng is per-adjacency (crosslink round trips differ link
// to link, so the node-wide engine is only a default). The caller is
// responsible for routing link's pipes between the two shards
// (channel.Pipe.SetRemote) before the run starts. The wired pair is
// returned for report collection.
func (n *Node) AttachSplit(neighbor *Node, link *channel.Link, eng arq.EngineConfig) *arq.Pair {
	ol := &outLink{peer: neighbor.id}
	ol.pair = arq.NewPair(n.sched, neighbor.sched, link, eng,
		func(now sim.Time, dg arq.Datagram, _ uint32) {
			neighbor.handleArrival(now, dg.Payload)
		},
		func(now sim.Time, reason string) {
			ol.failed = true
		})
	n.insertLink(ol)
	ol.pair.Start()
	return ol.pair
}

// insertLink files ol under its peer, keeping links sorted (a second
// session toward the same peer replaces the first) and the hop indices in
// routes pointing at the links they named before.
func (n *Node) insertLink(ol *outLink) {
	i, found := n.linkIndex(ol.peer)
	if found {
		n.links[i] = ol
		return
	}
	n.links = slices.Insert(n.links, i, ol)
	for d, hop := range n.routes {
		if int(hop) > i {
			n.routes[d] = hop + 1
		}
	}
}

// Send originates a packet to dst. It reports whether the packet was
// accepted by the first-hop link (or delivered locally). This is the one
// place a packet is encoded: every hop after it, and the destination's
// resequencer, is handed the same buffer, so payload must not be modified
// after Send — the rule channel.Pipe.Send already imposes on a frame's
// payload, extended end to end.
func (n *Node) Send(dst ID, payload []byte) bool {
	seq := entry(n.sched, seqTables, &n.seqTo, dst)
	buf := n.packetBuf(headerLen + len(payload))
	Packet{Src: n.id, Dst: dst, Seq: *seq, Payload: payload}.encodeTo(buf)
	*seq++
	n.Stats.Originated.Inc()
	if dst == n.id {
		n.deliverLocal(n.sched.Now(), buf)
		return true
	}
	return n.dispatch(dst, buf)
}

// dispatch routes an encoded packet and enqueues it on the next-hop link.
func (n *Node) dispatch(dst ID, buf []byte) bool {
	if int(dst) >= len(n.routes) || n.routes[dst] == 0 {
		n.Stats.NoRoute.Inc()
		return false
	}
	ol := n.links[n.routes[dst]-1]
	if ol.failed {
		n.Stats.LinkDown.Inc()
		return false
	}
	if !ol.pair.Enqueue(arq.Datagram{ID: ol.nextID, Payload: buf}) {
		n.Stats.BufferFull.Inc()
		return false
	}
	ol.nextID++
	return true
}

// handleArrival processes an encoded packet delivered by one of this
// node's incoming DLC sessions: deliver locally or forward immediately (the
// paper's relaxed in-sequence model — no reordering at transit nodes). A
// transit node reads the header and passes the buffer on as it arrived; it
// neither copies nor re-encodes it.
func (n *Node) handleArrival(now sim.Time, buf []byte) {
	pkt, err := DecodePacket(buf)
	if err != nil {
		n.Stats.Malformed.Inc()
		return
	}
	if pkt.Dst == n.id {
		n.deliverLocal(now, buf)
		return
	}
	n.Stats.Forwarded.Inc()
	if !n.dispatch(pkt.Dst, buf) {
		// The next hop refused (failed link, buffer full, or no route).
		// A transit node has no upstream to push back on — the DLC behind
		// us already released the frame — so park the packet for the next
		// route recomputation rather than lose it.
		n.Stats.Parked.Inc()
		n.pendingReroute = append(n.pendingReroute, buf)
	}
}

// deliverLocal hands a well-formed encoded packet addressed to this node
// to its source's resequencer, which releases in order.
func (n *Node) deliverLocal(now sim.Time, buf []byte) {
	pkt, _ := DecodePacket(buf)
	rs := entry(n.sched, reseqTables, &n.reseq, pkt.Src)
	if *rs == nil {
		*rs = resequence.New(n.sched, n.release)
	}
	(*rs).Push(now, arq.Datagram{ID: pkt.Seq, Payload: buf})
}

// released is every resequencer's in-order release callback.
func (n *Node) released(now sim.Time, dg arq.Datagram) {
	n.Stats.Delivered.Inc()
	if n.OnDeliver != nil {
		pkt, _ := DecodePacket(dg.Payload)
		n.OnDeliver(now, pkt)
	}
}

// Resequencer exposes the per-source resequencer (nil if none yet), for
// buffer-occupancy measurements.
func (n *Node) Resequencer(src ID) *resequence.Resequencer {
	if int(src) >= len(n.reseq) {
		return nil
	}
	return n.reseq[src]
}

// Recycle hands the node's run-memory storage back at the end of a run: each
// outgoing link's pair (arq.Pair.Recycle), the resequencers, the tables
// indexed by node ID and the packet slabs the node opened. A slab holds the
// packets of every node on the scheduler, so a harness recycles all of its
// nodes at once, when no packet of the run can be read any more, and before
// the schedulers' own Recycle; the nodes are dead afterwards.
func (n *Node) Recycle() {
	for _, ol := range n.links {
		ol.pair.Recycle()
	}
	for _, rs := range n.reseq {
		if rs != nil {
			rs.Recycle()
		}
	}
	routeTables.Put(n.sched, n.routes)
	reseqTables.Put(n.sched, n.reseq)
	seqTables.Put(n.sched, n.seqTo)
	n.routes, n.reseq, n.seqTo, n.pendingReroute = nil, nil, nil, nil
	for sl := n.slabs; sl != nil; {
		next := sl.next
		if sl == n.carver.cur {
			*n.carver = carver{}
		}
		sl.next = nil
		slabs.Put(n.sched, sl)
		sl = next
	}
	n.slabs = nil
}

// Summary renders headline counters.
func (n *Node) Summary() string {
	return fmt.Sprintf("node %d: orig=%d fwd=%d dlv=%d noroute=%d full=%d down=%d",
		n.id, n.Stats.Originated.Value(), n.Stats.Forwarded.Value(),
		n.Stats.Delivered.Value(), n.Stats.NoRoute.Value(),
		n.Stats.BufferFull.Value(), n.Stats.LinkDown.Value())
}

// Line builds a chain topology n0 — n1 — … — n(k−1) with static shortest
// routes, connecting every adjacent pair with the given pipe configuration.
// It returns the nodes and the data links (2(k−1) of them, in connect
// order: forward then reverse per adjacency).
func Line(sched *sim.Scheduler, k int, eng arq.EngineConfig, pipe channel.PipeConfig, rng *sim.RNG) ([]*Node, []*channel.Link) {
	if k < 2 {
		panic("node: line topology needs at least 2 nodes")
	}
	return chain(sched, k, k-1, eng, pipe, rng)
}
