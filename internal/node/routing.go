package node

import (
	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/sim"
)

// This file adds the minimal network-layer machinery a LAMS constellation
// needs around the DLC: topology builders beyond a line, shortest-path
// route computation over the *alive* adjacencies, and reclamation of
// traffic stranded in a failed link's sending buffer (§3.3: "when an
// unexpected unrecoverable link failure occurs, the sender ... can recover
// I-frames without loss"; the recovered datagrams re-enter the network
// layer and ride the recomputed routes).

// LinkAlive reports whether the outgoing DLC session toward neighbor is
// still usable (no declared link failure).
func (n *Node) LinkAlive(neighbor ID) bool {
	i, ok := n.linkIndex(neighbor)
	return ok && !n.links[i].failed
}

// reclaimFailedLinks pulls the datagrams stranded in every newly failed
// link's sending buffer back into pendingReroute. Links are walked in
// neighbor-ID order, so when several fail before one recomputation the
// reclaimed packets — and the datagram IDs they are re-dispatched under —
// come out in the same order every run.
func (n *Node) reclaimFailedLinks() {
	for _, ol := range n.links {
		if !ol.failed || ol.reclaimed {
			continue
		}
		ol.reclaimed = true
		for _, dg := range ol.pair.Reclaim() {
			if len(dg.Payload) < headerLen {
				continue
			}
			n.pendingReroute = append(n.pendingReroute, dg.Payload)
		}
	}
}

// flushPending re-dispatches reclaimed packets over the current routes.
func (n *Node) flushPending() {
	pending := n.pendingReroute
	n.pendingReroute = nil
	for _, buf := range pending {
		n.Stats.Rerouted.Inc()
		pkt, _ := DecodePacket(buf)
		if pkt.Dst == n.id {
			n.deliverLocal(n.sched.Now(), buf)
			continue
		}
		if !n.dispatch(pkt.Dst, buf) {
			// Still unroutable: keep for the next recompute.
			n.pendingReroute = append(n.pendingReroute, buf)
		}
	}
}

// RecomputeRoutes rebuilds every node's next-hop table by breadth-first
// search over the alive adjacencies, then re-dispatches any traffic
// reclaimed from failed links. Call it after injecting failures (a real
// constellation would run it from its topology manager on every pass
// schedule or failure notification).
func RecomputeRoutes(nodes []*Node) {
	// at[id] is 1 + the position in nodes of the node with that ID.
	var at []int
	for i, n := range nodes {
		*slot(&at, n.id) = i + 1
		n.reclaimFailedLinks()
	}
	// Alive adjacency as positions in nodes, in neighbor-ID order. An
	// adjacency is usable only if both directions live (each direction is
	// its own DLC session).
	adj := make([][]int, len(nodes))
	for i, n := range nodes {
		for _, ol := range n.links {
			if int(ol.peer) >= len(at) || at[ol.peer] == 0 || ol.failed {
				continue
			}
			if peer := at[ol.peer] - 1; nodes[peer].LinkAlive(n.id) {
				adj[i] = append(adj[i], peer)
			}
		}
	}
	// BFS from every node. hop[j] is the first hop on the path from src to
	// nodes[j], in the form src.routes stores it; 0 marks j unvisited.
	hop := make([]uint16, len(nodes))
	queue := make([]int, 0, len(nodes))
	for si, src := range nodes {
		clear(hop)
		clear(src.routes)
		queue = queue[:0]
		for _, nb := range adj[si] {
			li, _ := src.linkIndex(nodes[nb].id)
			hop[nb] = uint16(li + 1)
			queue = append(queue, nb)
		}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			*entry(src.sched, routeTables, &src.routes, nodes[u].id) = hop[u]
			for _, nb := range adj[u] {
				if nb != si && hop[nb] == 0 {
					hop[nb] = hop[u]
					queue = append(queue, nb)
				}
			}
		}
	}
	for _, n := range nodes {
		n.flushPending()
	}
}

// Ring builds a k-node ring with shortest-path routes in both directions.
// It returns the nodes and the data links in adjacency order (forward then
// reverse per adjacency, adjacency i joining node i and node (i+1) mod k).
func Ring(sched *sim.Scheduler, k int, eng arq.EngineConfig, pipe channel.PipeConfig, rng *sim.RNG) ([]*Node, []*channel.Link) {
	if k < 3 {
		panic("node: ring topology needs at least 3 nodes")
	}
	return chain(sched, k, k, eng, pipe, rng)
}

// chain builds k nodes, joins node i to node (i+1) mod k for each of the
// first adjacencies i — k−1 of them make a line, k a ring — and installs
// the shortest-path routes. It returns the nodes and the data links,
// forward then reverse per adjacency.
func chain(sched *sim.Scheduler, k, adjacencies int, eng arq.EngineConfig, pipe channel.PipeConfig, rng *sim.RNG) ([]*Node, []*channel.Link) {
	nodes := make([]*Node, k)
	for i := range nodes {
		nodes[i] = New(sched, ID(i), eng)
	}
	links := make([]*channel.Link, 0, 2*adjacencies)
	for i := 0; i < adjacencies; i++ {
		ab, ba := Connect(sched, nodes[i], nodes[(i+1)%k], pipe, rng)
		links = append(links, ab, ba)
	}
	RecomputeRoutes(nodes)
	return nodes, links
}
