// Relay: the store-and-forward constellation of §2. Four satellites in a
// chain relay traffic from node 0 to node 3 over lossy LAMS-DLC crosslinks.
// The point of the demo is §2.3's architectural argument: transit nodes
// forward out-of-order frames immediately (no reorder buffers in the
// subnet), and only the destination resequences — exactly-once, in-order
// delivery emerges end to end while every link runs the relaxed protocol.
package main

import (
	"fmt"
	"time"

	"repro/internal/channel"
	"repro/internal/lamsdlc"
	"repro/internal/node"
	"repro/internal/sim"
)

func main() {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(2024)

	cfg := lamsdlc.Defaults(13 * time.Millisecond) // ~2,000 km hops
	cfg.CheckpointInterval = 5 * time.Millisecond

	pipe := channel.PipeConfig{
		RateBps:    300e6,
		Delay:      channel.ConstantDelay(6670 * time.Microsecond),
		IModelSpec: "fixed:p=0.10", // a rough channel: 10% frame errors
		CModelSpec: "fixed:p=0.02",
	}

	nodes, _ := node.Line(sched, 4, cfg, pipe, rng)
	src, dst := nodes[0], nodes[3]

	var inOrder, outOfOrder int
	var lastSeq uint64
	var first = true
	dst.OnDeliver = func(_ sim.Time, p node.Packet) {
		if !first && p.Seq != lastSeq+1 {
			outOfOrder++
		}
		first = false
		lastSeq = p.Seq
		inOrder++
	}

	const n = 5000
	fmt.Printf("relaying %d packets over 3 hops (10%% frame errors per hop)\n\n", n)
	sent := 0
	var feed func()
	feed = func() {
		for sent < n {
			if !src.Send(3, []byte(fmt.Sprintf("packet %d", sent))) {
				// First-hop buffer full: retry shortly.
				sched.ScheduleAfter(time.Millisecond, feed)
				return
			}
			sent++
		}
	}
	sched.ScheduleAfter(0, feed)

	for t := 0; t < 6; t++ {
		sched.RunFor(500 * time.Millisecond)
		fmt.Printf("t=%-6v delivered=%-6d transit fwd: n1=%-6d n2=%-6d\n",
			sched.Now(), inOrder,
			nodes[1].Stats.Forwarded.Value(), nodes[2].Stats.Forwarded.Value())
		if inOrder == n {
			break
		}
	}
	sched.RunFor(30 * time.Second) // drain stragglers

	fmt.Println()
	for _, nd := range nodes {
		fmt.Println(nd.Summary())
	}
	rs := dst.Resequencer(0)
	fmt.Printf("\nend-to-end: %d/%d delivered, misordered deliveries to the app: %d\n",
		inOrder, n, outOfOrder)
	fmt.Printf("destination resequencer: %s\n", rs.Summary())
	fmt.Printf("transit reorder buffers: n1=%v n2=%v (must be none — §2.3)\n",
		nodes[1].Resequencer(0) != nil, nodes[2].Resequencer(0) != nil)
	perHop := dst.LinkMetrics(2) // dst's outgoing link metrics (reverse dir)
	_ = perHop
	for i := 0; i < 3; i++ {
		m := nodes[i].LinkMetrics(node.ID(i + 1))
		fmt.Printf("hop %d->%d: %d first + %d retx, mean holding %v\n",
			i, i+1, m.FirstTx.Value(), m.Retransmissions.Value(),
			m.MeanHoldingTime().Round(time.Millisecond))
	}
}
