package node

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/lamsdlc"
	"repro/internal/sim"
)

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{Src: 3, Dst: 9, Seq: 1 << 40, Payload: []byte("hello relay")}
	got, err := DecodePacket(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != p.Src || got.Dst != p.Dst || got.Seq != p.Seq || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := DecodePacket(make([]byte, 5)); err != ErrShortPacket {
		t.Fatalf("short packet err = %v", err)
	}
	if p.String() == "" {
		t.Fatal("packet string")
	}
}

func testCfg() lamsdlc.Config {
	cfg := lamsdlc.Defaults(6 * sim.Millisecond)
	cfg.CheckpointInterval = 5 * sim.Millisecond
	cfg.CumulationDepth = 3
	cfg.ProcTime = 10 * sim.Microsecond
	return cfg
}

func testEng() arq.EngineConfig { return testCfg() }

func testPipe() channel.PipeConfig {
	return channel.PipeConfig{
		RateBps: 100e6,
		Delay:   channel.ConstantDelay(3 * sim.Millisecond),
	}
}

func TestTwoNodeExchange(t *testing.T) {
	sched := sim.NewScheduler()
	nodes, _ := Line(sched, 2, testEng(), testPipe(), sim.NewRNG(1))
	a, b := nodes[0], nodes[1]
	var atB, atA []Packet
	b.OnDeliver = func(_ sim.Time, p Packet) { atB = append(atB, p) }
	a.OnDeliver = func(_ sim.Time, p Packet) { atA = append(atA, p) }
	for i := 0; i < 20; i++ {
		if !a.Send(1, []byte{byte(i)}) {
			t.Fatal("send refused")
		}
		if !b.Send(0, []byte{byte(100 + i)}) {
			t.Fatal("reverse send refused")
		}
	}
	sched.RunFor(2 * sim.Second)
	if len(atB) != 20 || len(atA) != 20 {
		t.Fatalf("delivered %d/%d, want 20/20", len(atB), len(atA))
	}
	for i, p := range atB {
		if p.Seq != uint64(i) || p.Src != 0 || p.Payload[0] != byte(i) {
			t.Fatalf("b got %v at %d", p, i)
		}
	}
	for i, p := range atA {
		if p.Seq != uint64(i) || p.Src != 1 {
			t.Fatalf("a got %v at %d", p, i)
		}
	}
}

func TestLocalDelivery(t *testing.T) {
	sched := sim.NewScheduler()
	n := New(sched, 5, testEng())
	var got []Packet
	n.OnDeliver = func(_ sim.Time, p Packet) { got = append(got, p) }
	n.Send(5, []byte("loopback"))
	sched.Run()
	if len(got) != 1 || string(got[0].Payload) != "loopback" {
		t.Fatalf("local delivery: %v", got)
	}
}

func TestNoRouteCounted(t *testing.T) {
	sched := sim.NewScheduler()
	n := New(sched, 0, testEng())
	if n.Send(9, nil) {
		t.Fatal("send without route accepted")
	}
	if n.Stats.NoRoute.Value() != 1 {
		t.Fatal("no-route not counted")
	}
}

func TestThreeHopRelayLossy(t *testing.T) {
	sched := sim.NewScheduler()
	pipe := testPipe()
	pipe.IModel = channel.FixedProb{P: 0.15}
	pipe.CModel = channel.FixedProb{P: 0.03}
	nodes, _ := Line(sched, 4, testEng(), pipe, sim.NewRNG(2))
	dst := nodes[3]
	var got []Packet
	dst.OnDeliver = func(_ sim.Time, p Packet) { got = append(got, p) }
	const n = 100
	for i := 0; i < n; i++ {
		if !nodes[0].Send(3, []byte{byte(i)}) {
			t.Fatalf("send %d refused", i)
		}
	}
	sched.RunFor(60 * sim.Second)
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	// End-to-end exactly-once, in-order (the destination resequencer's
	// contract), across two lossy relays.
	for i, p := range got {
		if p.Seq != uint64(i) {
			t.Fatalf("order broken: got seq %d at %d", p.Seq, i)
		}
	}
	if nodes[1].Stats.Forwarded.Value() != uint64(nodes[1].Stats.Forwarded.Value()) ||
		nodes[1].Stats.Forwarded.Value() < n {
		t.Fatalf("middle node forwarded %d", nodes[1].Stats.Forwarded.Value())
	}
	// The resequencer at the destination did real work or at least exists.
	if dst.Resequencer(0) == nil {
		t.Fatal("no resequencer instantiated for source 0")
	}
}

func TestTransitNodesDoNotResequence(t *testing.T) {
	// §2.3's claim: intermediate nodes forward out-of-order frames
	// immediately, so only the destination holds a reorder buffer.
	sched := sim.NewScheduler()
	pipe := testPipe()
	pipe.IModel = channel.FixedProb{P: 0.2}
	nodes, _ := Line(sched, 3, testEng(), pipe, sim.NewRNG(3))
	var got []Packet
	nodes[2].OnDeliver = func(_ sim.Time, p Packet) { got = append(got, p) }
	for i := 0; i < 80; i++ {
		nodes[0].Send(2, []byte{byte(i)})
	}
	sched.RunFor(60 * sim.Second)
	if len(got) != 80 {
		t.Fatalf("delivered %d", len(got))
	}
	if nodes[1].Resequencer(0) != nil {
		t.Fatal("transit node instantiated a resequencer")
	}
	if rs := nodes[2].Resequencer(0); rs == nil || rs.Stats.Released.Value() != 80 {
		t.Fatal("destination resequencer missing or incomplete")
	}
}

func TestLinkFailureCountsDrops(t *testing.T) {
	sched := sim.NewScheduler()
	nodes, links := Line(sched, 2, testEng(), testPipe(), sim.NewRNG(4))
	sched.RunFor(100 * sim.Millisecond)
	// Kill the a->b data link; the DLC declares failure, after which the
	// network layer refuses new packets on that adjacency.
	links[0].Fail()
	sched.RunFor(10 * sim.Second)
	if nodes[0].Send(1, []byte("x")) {
		t.Fatal("send on failed link accepted")
	}
	if nodes[0].Stats.LinkDown.Value() != 1 {
		t.Fatalf("link-down drops = %d", nodes[0].Stats.LinkDown.Value())
	}
}

func TestNeighborsAndSummary(t *testing.T) {
	sched := sim.NewScheduler()
	nodes, _ := Line(sched, 3, testEng(), testPipe(), sim.NewRNG(5))
	nb := nodes[1].Neighbors()
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Fatalf("neighbors = %v", nb)
	}
	if nodes[1].LinkMetrics(0) == nil || nodes[1].LinkMetrics(9) != nil {
		t.Fatal("LinkMetrics lookup")
	}
	if nodes[0].Summary() == "" {
		t.Fatal("summary")
	}
	if nodes[0].ID() != 0 {
		t.Fatal("id")
	}
}

func TestLinePanicsOnTooFewNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Line(sim.NewScheduler(), 1, testEng(), testPipe(), sim.NewRNG(1))
}

func TestBidirectionalCrossTraffic(t *testing.T) {
	// Full-duplex chain with simultaneous flows in both directions over
	// lossy links: both destinations see exactly-once in-order streams.
	sched := sim.NewScheduler()
	pipe := testPipe()
	pipe.IModel = channel.FixedProb{P: 0.1}
	pipe.CModel = channel.FixedProb{P: 0.02}
	nodes, _ := Line(sched, 3, testEng(), pipe, sim.NewRNG(10))
	var fwd, rev []Packet
	nodes[2].OnDeliver = func(_ sim.Time, p Packet) { fwd = append(fwd, p) }
	nodes[0].OnDeliver = func(_ sim.Time, p Packet) { rev = append(rev, p) }
	const n = 60
	for i := 0; i < n; i++ {
		nodes[0].Send(2, []byte{byte(i)})
		nodes[2].Send(0, []byte{byte(200 - i)})
	}
	sched.RunFor(60 * sim.Second)
	if len(fwd) != n || len(rev) != n {
		t.Fatalf("delivered fwd=%d rev=%d, want %d each", len(fwd), len(rev), n)
	}
	for i := range fwd {
		if fwd[i].Seq != uint64(i) || rev[i].Seq != uint64(i) {
			t.Fatalf("ordering broken at %d", i)
		}
	}
	// The middle node forwarded both directions.
	if nodes[1].Stats.Forwarded.Value() < 2*n {
		t.Fatalf("middle forwarded %d", nodes[1].Stats.Forwarded.Value())
	}
}

func TestBufferFullCounted(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := testCfg()
	cfg.SendBufferCap = 4
	nodes, _ := Line(sched, 2, cfg, testPipe(), sim.NewRNG(11))
	refused := 0
	for i := 0; i < 20; i++ {
		if !nodes[0].Send(1, []byte{byte(i)}) {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("tiny send buffer never refused")
	}
	if nodes[0].Stats.BufferFull.Value() != uint64(refused) {
		t.Fatalf("BufferFull = %d, want %d", nodes[0].Stats.BufferFull.Value(), refused)
	}
}

func TestMultipleSourcesResequencedIndependently(t *testing.T) {
	// Two sources converge on one destination; each source's stream is
	// ordered independently by its own resequencer.
	sched := sim.NewScheduler()
	pipe := testPipe()
	pipe.IModel = channel.FixedProb{P: 0.15}
	nodes, _ := Line(sched, 3, testEng(), pipe, sim.NewRNG(12))
	perSrc := map[ID][]uint64{}
	nodes[2].OnDeliver = func(_ sim.Time, p Packet) {
		perSrc[p.Src] = append(perSrc[p.Src], p.Seq)
	}
	const n = 40
	for i := 0; i < n; i++ {
		nodes[0].Send(2, []byte{1})
		nodes[1].Send(2, []byte{2})
	}
	sched.RunFor(60 * sim.Second)
	for src, seqs := range perSrc {
		if len(seqs) != n {
			t.Fatalf("src %d delivered %d", src, len(seqs))
		}
		for i, s := range seqs {
			if s != uint64(i) {
				t.Fatalf("src %d out of order at %d", src, i)
			}
		}
	}
	if len(perSrc) != 2 {
		t.Fatalf("sources seen: %d", len(perSrc))
	}
}

func TestRingShortestPaths(t *testing.T) {
	sched := sim.NewScheduler()
	nodes, _ := Ring(sched, 5, testEng(), testPipe(), sim.NewRNG(20))
	var got []Packet
	nodes[2].OnDeliver = func(_ sim.Time, p Packet) { got = append(got, p) }
	// 0 -> 2 should go clockwise through 1 (2 hops, not 3).
	for i := 0; i < 10; i++ {
		nodes[0].Send(2, []byte{byte(i)})
	}
	sched.RunFor(5 * sim.Second)
	if len(got) != 10 {
		t.Fatalf("delivered %d", len(got))
	}
	if fwd := nodes[1].Stats.Forwarded.Value(); fwd != 10 {
		t.Fatalf("node 1 forwarded %d, want 10 (shortest path)", fwd)
	}
	if fwd := nodes[4].Stats.Forwarded.Value(); fwd != 0 {
		t.Fatalf("node 4 forwarded %d, want 0", fwd)
	}
}

func TestRingFailoverReroutesAndRecoversStrandedTraffic(t *testing.T) {
	sched := sim.NewScheduler()
	pipe := testPipe()
	nodes, links := Ring(sched, 5, testEng(), pipe, sim.NewRNG(21))
	var got []Packet
	nodes[2].OnDeliver = func(_ sim.Time, p Packet) { got = append(got, p) }

	const n = 120
	sent := 0
	var feed func()
	feed = func() {
		if sent < n {
			nodes[0].Send(2, []byte{byte(sent)})
			sent++
			sched.ScheduleAfter(500*sim.Microsecond, feed)
		}
	}
	sched.ScheduleAfter(0, feed)

	// Mid-transfer, sever the 1<->2 adjacency (both data links: indices
	// 2 and 3 in adjacency order).
	sched.Schedule(sim.Time(20*sim.Millisecond), func() {
		links[2].Fail()
		links[3].Fail()
	})
	// Let the DLC declare failure, then recompute routes: traffic reroutes
	// 0 -> 4 -> 3 -> 2 and the datagrams stranded in node 1's dead sender
	// are reclaimed and re-dispatched.
	sched.Schedule(sim.Time(400*sim.Millisecond), func() {
		RecomputeRoutes(nodes)
	})
	sched.RunFor(60 * sim.Second)

	if len(got) != n {
		t.Fatalf("delivered %d/%d after failover", len(got), n)
	}
	for i, p := range got {
		if p.Seq != uint64(i) {
			t.Fatalf("order broken at %d after failover (seq %d)", i, p.Seq)
		}
	}
	// The long way actually carried traffic.
	if nodes[4].Stats.Forwarded.Value() == 0 || nodes[3].Stats.Forwarded.Value() == 0 {
		t.Fatal("counter-clockwise path unused after failover")
	}
	rerouted := nodes[0].Stats.Rerouted.Value() + nodes[1].Stats.Rerouted.Value()
	if rerouted == 0 {
		t.Fatal("no stranded datagrams reclaimed")
	}
}

func TestRecomputeRoutesPartition(t *testing.T) {
	// Severing both adjacencies around a node partitions it; packets to it
	// become unroutable and are counted, not silently lost.
	sched := sim.NewScheduler()
	nodes, links := Ring(sched, 3, testEng(), testPipe(), sim.NewRNG(22))
	sched.RunFor(50 * sim.Millisecond)
	// Node 2's adjacencies: adjacency 1 (1<->2) links[2],links[3]; adjacency
	// 2 (2<->0) links[4],links[5].
	for _, l := range links[2:6] {
		l.Fail()
	}
	sched.RunFor(10 * sim.Second) // DLC failures declared
	RecomputeRoutes(nodes)
	if nodes[0].Send(2, []byte("x")) {
		t.Fatal("send to a partitioned node accepted")
	}
	if nodes[0].Stats.NoRoute.Value() == 0 {
		t.Fatal("partition not reflected in NoRoute")
	}
	if nodes[0].Send(1, []byte("y")) != true {
		t.Fatal("route to the still-reachable node lost")
	}
}

func TestRingPanicsTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Ring(sim.NewScheduler(), 2, testEng(), testPipe(), sim.NewRNG(1))
}

// sinkSender stands in for a DLC session's sending half at the Enqueue
// seam: it records what the network layer hands the link and does nothing
// else. Every other SenderHalf method is the embedded nil interface's and
// must not be reached.
type sinkSender struct {
	arq.SenderHalf
	got []arq.Datagram
}

func (s *sinkSender) Enqueue(dg arq.Datagram) bool {
	s.got = append(s.got, dg)
	return true
}

// sinkNode returns node id with one outgoing link, toward next, that ends
// in a sinkSender, and a route to dst through it.
func sinkNode(id, next, dst ID) (*Node, *sinkSender) {
	n := New(sim.NewScheduler(), id, testEng())
	sink := &sinkSender{}
	n.insertLink(&outLink{peer: next, pair: &arq.Pair{Sender: sink}})
	n.SetRoute(dst, next)
	return n, sink
}

// TestForwardingIsZeroCopy pins the frame path's central property: the
// buffer the source encodes is the buffer every transit node enqueues and
// the buffer the destination's resequencer releases — same bytes, same
// backing array — across three transit hops.
func TestForwardingIsZeroCopy(t *testing.T) {
	const dst = 4
	payload := []byte("immutable after Send")
	src, out := sinkNode(0, 1, dst)
	if !src.Send(dst, payload) {
		t.Fatal("send refused")
	}
	encoded := out.got[0].Payload
	want := append([]byte(nil), encoded...)
	if p, err := DecodePacket(encoded); err != nil || p.Src != 0 || p.Dst != dst || !bytes.Equal(p.Payload, payload) {
		t.Fatalf("source encoded %v, %v", p, err)
	}

	buf := encoded
	for id := ID(1); id < dst; id++ {
		transit, sink := sinkNode(id, id+1, dst)
		transit.handleArrival(0, buf)
		if len(sink.got) != 1 || transit.Stats.Forwarded.Value() != 1 {
			t.Fatalf("node %d forwarded %d datagrams", id, len(sink.got))
		}
		buf = sink.got[0].Payload
		if &buf[0] != &encoded[0] || len(buf) != len(encoded) {
			t.Fatalf("node %d handed the next hop a different buffer", id)
		}
	}

	end := New(sim.NewScheduler(), dst, testEng())
	var got Packet
	end.OnDeliver = func(_ sim.Time, p Packet) { got = p }
	end.handleArrival(0, buf)
	if got.Src != 0 || got.Seq != 0 || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("destination released %v", got)
	}
	if &got.Payload[0] != &encoded[headerLen] {
		t.Fatal("destination released a copy of the payload")
	}
	if !bytes.Equal(encoded, want) {
		t.Fatal("the encoded packet changed in transit")
	}
}

// TestTransitStepDoesNotAllocate pins the transit step — handleArrival
// through dispatch, up to the engine's Enqueue — at zero allocations.
func TestTransitStepDoesNotAllocate(t *testing.T) {
	transit, sink := sinkNode(1, 2, 9)
	buf := Packet{Src: 0, Dst: 9, Seq: 7, Payload: make([]byte, 256)}.Encode()
	sink.got = make([]arq.Datagram, 0, 2000)
	if avg := testing.AllocsPerRun(1000, func() { transit.handleArrival(0, buf) }); avg != 0 {
		t.Fatalf("transit step allocates %v times per packet", avg)
	}
	if len(sink.got) == 0 || transit.pendingReroute != nil {
		t.Fatalf("transit step did not forward: %d enqueued, %d parked", len(sink.got), len(transit.pendingReroute))
	}
}

// TestRelayPayloadIntactOverLossyHops sends distinct payloads across four
// lossy hops (three transit nodes, retransmissions on every link) and
// requires each delivered byte for byte.
func TestRelayPayloadIntactOverLossyHops(t *testing.T) {
	sched := sim.NewScheduler()
	pipe := testPipe()
	pipe.IModel = channel.FixedProb{P: 0.15}
	pipe.CModel = channel.FixedProb{P: 0.03}
	nodes, _ := Line(sched, 5, testEng(), pipe, sim.NewRNG(31))
	const n = 60
	rng := sim.NewRNG(32)
	sent := make([][]byte, n)
	for i := range sent {
		sent[i] = make([]byte, 1+rng.Intn(300))
		for j := range sent[i] {
			sent[i][j] = byte(rng.Uint64())
		}
	}
	var got []Packet
	nodes[4].OnDeliver = func(_ sim.Time, p Packet) { got = append(got, p) }
	for _, payload := range sent {
		if !nodes[0].Send(4, payload) {
			t.Fatal("send refused")
		}
	}
	sched.RunFor(60 * sim.Second)
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, p := range got {
		if p.Seq != uint64(i) || !bytes.Equal(p.Payload, sent[i]) {
			t.Fatalf("packet %d arrived as seq %d with a different payload", i, p.Seq)
		}
	}
}

// TestReclaimOrderIsNeighborOrder is the regression test for reroute order:
// node 0 loses its links to neighbors 3 and 1 before one RecomputeRoutes,
// with traffic stranded on both. The packets must be reclaimed — and so
// re-dispatched, and renumbered on the surviving link — in neighbor-ID
// order, each link's oldest first, on every one of fifty runs. (When the
// links lived in a map the order followed map iteration and differed run
// to run.)
func TestReclaimOrderIsNeighborOrder(t *testing.T) {
	const perLink = 6
	var want []string
	for _, dst := range []ID{1, 3} {
		for seq := 0; seq < perLink; seq++ {
			want = append(want, Packet{Src: 0, Dst: dst, Seq: uint64(seq)}.String())
		}
	}
	for run := 0; run < 50; run++ {
		sched := sim.NewScheduler()
		rng := sim.NewRNG(uint64(run))
		nodes := make([]*Node, 4)
		for i := range nodes {
			nodes[i] = New(sched, ID(i), testEng())
		}
		// Hub 0 with spokes 3, 1, 2 (attached out of ID order), and a rim
		// 2–1, 2–3 so both destinations stay reachable through 2.
		ab3, ba3 := Connect(sched, nodes[0], nodes[3], testPipe(), rng)
		ab1, ba1 := Connect(sched, nodes[0], nodes[1], testPipe(), rng)
		Connect(sched, nodes[0], nodes[2], testPipe(), rng)
		Connect(sched, nodes[2], nodes[1], testPipe(), rng)
		Connect(sched, nodes[2], nodes[3], testPipe(), rng)
		RecomputeRoutes(nodes)
		delivered := map[ID]int{}
		for _, dst := range []ID{1, 3} {
			nodes[dst].OnDeliver = func(_ sim.Time, p Packet) { delivered[p.Dst]++ }
		}

		for _, l := range []*channel.Link{ab3, ba3, ab1, ba1} {
			l.Fail()
		}
		for seq := 0; seq < perLink; seq++ {
			nodes[0].Send(3, []byte{byte(seq)})
			nodes[0].Send(1, []byte{byte(seq)})
		}
		sched.RunFor(sim.Second) // both DLC failures declared
		if nodes[0].LinkAlive(1) || nodes[0].LinkAlive(3) {
			t.Fatal("links did not fail")
		}

		nodes[0].reclaimFailedLinks()
		var got []string
		for _, buf := range nodes[0].pendingReroute {
			p, _ := DecodePacket(buf)
			p.Payload = nil
			got = append(got, p.String())
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d: reclaimed %v, want %v", run, got, want)
		}

		RecomputeRoutes(nodes)
		sched.RunFor(sim.Second)
		if delivered[1] != perLink || delivered[3] != perLink {
			t.Fatalf("run %d: delivered %v after rerouting through node 2", run, delivered)
		}
	}
}

// TestRoutesSurviveLaterAttach pins the hop indices in the route table:
// attaching a lower-numbered neighbor after routes exist shifts the sorted
// links, and every route must still name the link it named before.
func TestRoutesSurviveLaterAttach(t *testing.T) {
	n, viaFive := sinkNode(3, 5, 9)
	viaOne := &sinkSender{}
	n.insertLink(&outLink{peer: 1, pair: &arq.Pair{Sender: viaOne}})
	n.SetRoute(8, 1)
	buf9 := Packet{Src: 0, Dst: 9}.Encode()
	buf8 := Packet{Src: 0, Dst: 8}.Encode()
	n.handleArrival(0, buf9)
	n.handleArrival(0, buf8)
	if len(viaFive.got) != 1 || len(viaOne.got) != 1 {
		t.Fatalf("dst 9 via 5: %d, dst 8 via 1: %d, want 1 and 1", len(viaFive.got), len(viaOne.got))
	}
	if nb := n.Neighbors(); len(nb) != 2 || nb[0] != 1 || nb[1] != 5 {
		t.Fatalf("neighbors = %v", nb)
	}
	n.SetRoute(9, 7) // not a neighbor: no route
	if n.dispatch(9, buf9) || n.Stats.NoRoute.Value() != 1 {
		t.Fatal("route through a non-neighbor accepted")
	}
}
