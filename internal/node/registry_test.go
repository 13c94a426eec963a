package node_test

import (
	"fmt"
	"testing"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/node"
	"repro/internal/sim"

	_ "repro/internal/engines" // link every registered engine in
)

// TestLineRelayEveryRegisteredEngine drives a 3-node store-and-forward line
// with each engine the registry knows about, purely through the arq
// contract: the test compiles against no protocol package, so a newly
// registered engine is covered (or caught) automatically.
func TestLineRelayEveryRegisteredEngine(t *testing.T) {
	protos := arq.Protocols()
	if len(protos) < 2 {
		t.Fatalf("registry holds %d engines, want at least lams + one baseline", len(protos))
	}
	for _, name := range protos {
		t.Run(name, func(t *testing.T) {
			reg, err := arq.ParseProtocol(name)
			if err != nil {
				t.Fatal(err)
			}
			sched := sim.NewScheduler()
			pipe := channel.PipeConfig{
				RateBps: 100e6,
				Delay:   channel.ConstantDelay(2 * sim.Millisecond),
				IModel:  channel.FixedProb{P: 0.05},
				CModel:  channel.FixedProb{P: 0.01},
			}
			eng := reg.Defaults(2 * 2 * sim.Millisecond)
			nodes, _ := node.Line(sched, 3, eng, pipe, sim.NewRNG(5))
			src, dst := nodes[0], nodes[2]
			var got []node.Packet
			dst.OnDeliver = func(_ sim.Time, p node.Packet) { got = append(got, p) }
			const n = 150
			for i := 0; i < n; i++ {
				if !src.Send(2, []byte(fmt.Sprintf("pkt-%d", i))) {
					t.Fatalf("send %d refused", i)
				}
			}
			sched.RunFor(60 * sim.Second)
			if len(got) != n {
				t.Fatalf("%s delivered %d/%d across the relay", name, len(got), n)
			}
			for i, p := range got {
				if p.Seq != uint64(i) {
					t.Fatalf("%s order broken at %d: seq %d", name, i, p.Seq)
				}
			}
			if fwd := nodes[1].Stats.Forwarded.Value(); fwd < uint64(n) {
				t.Fatalf("%s middle node forwarded %d, want >= %d", name, fwd, n)
			}
		})
	}
}
