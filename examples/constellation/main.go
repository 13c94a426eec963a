// Constellation: a five-satellite ring under way. Traffic streams from
// satellite 0 to satellite 2 over the short arc; mid-transfer the 1↔2
// crosslink is lost (tracking failure). The DLC on the dead link declares
// failure within its §3.2 bound, the topology manager recomputes routes
// over the surviving adjacencies, traffic — including the datagrams
// stranded in the dead link's sending buffer — swings onto the long arc
// 0→4→3→2, and the destination still sees every packet exactly once, in
// order.
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
	cfg := lamsdlc.Defaults(13 * time.Millisecond)
	cfg.CheckpointInterval = 5 * time.Millisecond
	pipe := channel.PipeConfig{
		RateBps: 300e6,
		Delay:   channel.ConstantDelay(6670 * time.Microsecond), // ~2,000 km hops
		IModel:  channel.FixedProb{P: 0.05},
		CModel:  channel.FixedProb{P: 0.01},
	}

	nodes, links := node.Ring(sched, 5, cfg, pipe, sim.NewRNG(31))
	delivered := 0
	misordered := 0
	var lastSeq uint64
	nodes[2].OnDeliver = func(_ sim.Time, p node.Packet) {
		if delivered > 0 && p.Seq != lastSeq+1 {
			misordered++
		}
		lastSeq = p.Seq
		delivered++
	}

	const n = 20000
	sent := 0
	var feed func()
	feed = func() {
		if sent < n {
			nodes[0].Send(2, []byte(fmt.Sprintf("telemetry %05d", sent)))
			sent++
			sched.ScheduleAfter(100*time.Microsecond, feed)
		}
	}
	sched.ScheduleAfter(0, feed)

	fmt.Printf("streaming %d packets 0 -> 2 around a 5-satellite ring\n\n", n)
	report := func(tag string) {
		fmt.Printf("%-26s delivered=%-6d via1=%-6d via4=%-6d rerouted=%d\n",
			tag, delivered,
			nodes[1].Stats.Forwarded.Value(), nodes[4].Stats.Forwarded.Value(),
			nodes[0].Stats.Rerouted.Value()+nodes[1].Stats.Rerouted.Value())
	}

	sched.RunFor(500 * time.Millisecond)
	report("steady state (short arc):")

	// Tracking loss on the 1<->2 adjacency (both data directions).
	links[2].Fail()
	links[3].Fail()
	fmt.Println("\n!! crosslink 1<->2 lost")
	sched.RunFor(300 * time.Millisecond) // DLC failure detection runs
	report("after link loss:")

	node.RecomputeRoutes(nodes)
	fmt.Println("\nroutes recomputed over surviving adjacencies")
	sched.RunFor(3 * time.Second)
	report("after failover:")

	fmt.Printf("\nfinal: %d/%d delivered exactly once in order (misordered=%d)\n",
		delivered, n, misordered)
	for _, nd := range nodes {
		fmt.Println(nd.Summary())
	}
}
