package shard

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/node"
	"repro/internal/orbit"
	"repro/internal/sim"
)

// This file builds the constellation scenario on top of the shard engine:
// a Walker-delta constellation with grid crosslinks (intra-plane ring plus
// cross-plane same-index neighbors), every crosslink terminated by a full
// DLC session pair in each direction, polar-latitude handover churn on the
// cross-plane links, and a set of store-and-forward flows measured end to
// end. It is experiment family E19 and the lamsconst CLI in library form.

// flowStream offsets the flow-permutation RNG stream far away from the
// per-session link streams (session index space), so adding links never
// perturbs flow selection.
const flowStream = 1 << 30

// relVelMS bounds the relative velocity of two LEO crosslink endpoints
// [m/s]; it converts the delay-sampling step into a safety margin when the
// minimum propagation delay (the lookahead window) is estimated from
// discrete samples. Two counter-rotating LEO satellites close at well under
// 2 × 7.8 km/s.
const relVelMS = 16e3

// Config parameterizes one constellation run. Build one with
// DefaultConfig and override fields; Build validates.
type Config struct {
	Walker orbit.Walker
	// Proto names a registered ARQ engine ("lams", "srhdlc", "gbn").
	Proto string
	// Shards is K, the number of parallel partitions. Results are
	// bit-identical for every K ≥ 1.
	Shards int
	Seed   uint64

	// Flows is the number of source→destination packet flows, drawn from a
	// seed-determined permutation (each node is source of at most one flow
	// and destination of at most one). Clamped to Total/2.
	Flows int
	// DatagramsPerFlow is how many datagrams each flow originates.
	DatagramsPerFlow int
	PayloadBytes     int
	// OfferInterval spaces a flow's consecutive datagrams.
	OfferInterval sim.Duration

	// RateBps is the crosslink wire rate.
	RateBps float64
	// IModelSpec and CModelSpec name the per-link error models for
	// information and control frames by registry spec (channel.ParseModel;
	// "fixed:p=...", "ge:...", "trace:file=..."); empty is the perfect
	// channel. Build parses each spec once and every adjacency pipe gets a
	// FRESH instance, and each pipe's RNG stream is keyed by adjacency
	// index, not by shard — so stateful models (Gilbert-Elliott sojourns,
	// replay cursors) stay bit-identical at every shard count.
	IModelSpec, CModelSpec string

	// Horizon bounds simulated time. Unless RunToHorizon is set, the run
	// stops early once every routable flow has delivered everything it
	// sent.
	Horizon      sim.Duration
	RunToHorizon bool

	// PolarDeg gates cross-plane crosslinks: they are unusable while
	// either endpoint is above this |latitude| (0 disables gating).
	// Retarget is the pointing re-acquisition time after a link becomes
	// geometrically usable again.
	PolarDeg float64
	Retarget sim.Duration
}

// WalkerGrid returns the canonical square Walker constellation used by the
// constellation experiments: √n planes of √n satellites at 780 km, 86.4°
// inclination (Iridium-like near-polar), phasing F=1 so that cross-plane
// neighbors never collide at the plane crossings. n must be a perfect
// square.
func WalkerGrid(n int) orbit.Walker {
	p := int(math.Round(math.Sqrt(float64(n))))
	if p*p != n {
		panic(fmt.Sprintf("shard: WalkerGrid(%d): not a perfect square", n))
	}
	return orbit.Walker{
		Planes:         p,
		PerPlane:       p,
		PhasingF:       1,
		AltitudeM:      780e3,
		InclinationDeg: 86.4,
	}
}

// DefaultConfig returns the standard constellation scenario over w.
func DefaultConfig(w orbit.Walker) Config {
	n := w.Total()
	flows := n / 4
	if flows < 1 {
		flows = 1
	}
	return Config{
		Walker:           w,
		Proto:            "lams",
		Shards:           1,
		Seed:             1,
		Flows:            flows,
		DatagramsPerFlow: 50,
		PayloadBytes:     256,
		OfferInterval:    2 * sim.Millisecond,
		RateBps:          300e6,
		IModelSpec:       "fixed:p=0.01",
		CModelSpec:       "fixed:p=0.002",
		Horizon:          30 * sim.Second,
		PolarDeg:         60,
		Retarget:         200 * sim.Millisecond,
	}
}

// validate reports the first configuration error outside the channel specs,
// which Build checks by parsing them.
func (c Config) validate() error {
	if err := c.Walker.Validate(); err != nil {
		return err
	}
	n := c.Walker.Total()
	if n < 2 {
		return fmt.Errorf("shard: constellation needs >=2 satellites, got %d", n)
	}
	if n > 65535 {
		return fmt.Errorf("shard: %d satellites exceed the node.ID space", n)
	}
	if c.Shards < 1 || c.Shards > n {
		return fmt.Errorf("shard: %d shards for %d satellites", c.Shards, n)
	}
	if _, err := arq.ParseProtocol(c.Proto); err != nil {
		return err
	}
	if c.Flows < 1 || c.DatagramsPerFlow < 1 || c.PayloadBytes < 1 {
		return fmt.Errorf("shard: flows, datagrams/flow and payload must be positive")
	}
	// A payload rides in a node.Packet, whose header shares the I-frame.
	if limit := frame.MaxPayload - len(node.Packet{}.Encode()); c.PayloadBytes > limit {
		return fmt.Errorf("shard: payload %d bytes above the %d an I-frame carries after the node header", c.PayloadBytes, limit)
	}
	if c.OfferInterval <= 0 || c.Horizon <= 0 {
		return fmt.Errorf("shard: offer interval and horizon must be positive")
	}
	if !(c.RateBps > 0) {
		return fmt.Errorf("shard: rate must be positive")
	}
	if c.RateBps < channel.MinRateBps {
		return fmt.Errorf("shard: rate %g bits/s below the %.3g at which a frame's serialization time overflows", c.RateBps, channel.MinRateBps)
	}
	return nil
}

// Report is the outcome of one constellation run. Every field except
// Shards is invariant across shard counts; Render prints only the
// invariant fields, which is what the determinism pins compare.
type Report struct {
	Sats        int
	Adjacencies int
	Flows       int
	Unroutable  int
	Shards      int

	Window sim.Duration
	Rounds int
	Events uint64
	// EndTime is the simulated clock when the run stopped (early stop or
	// horizon).
	EndTime sim.Time

	Offered   uint64
	Delivered uint64
	DelayP50  sim.Duration
	DelayP95  sim.Duration
	DelayMax  sim.Duration
	// Makespan is the time of the last end-to-end delivery.
	Makespan sim.Time

	// Handover counts link-state transitions (down or up) actually applied
	// within the horizon, over all crosslink adjacencies.
	Handover int

	FramesSent      uint64
	FramesDelivered uint64
	FramesLost      uint64
	ControlFrames   uint64
	BitsSent        uint64
	Retransmissions uint64
	// Utilization is BitsSent over the aggregate wire capacity of every
	// pipe up to EndTime.
	Utilization float64

	// Host is the engine's host-time account of the run. Like Shards it
	// varies with K (and with the machine), so Render never prints it;
	// Host.Render does.
	Host RunStats

	// Mismatched counts delivered packets whose payload differs from the
	// pattern every flow offers: zero unless a packet buffer was reused
	// while still reachable. Render does not print it.
	Mismatched uint64
}

// Render prints the shard-count-invariant report, one experiment row per
// line. It deliberately excludes Shards (and any wall-clock quantity): the
// determinism pins require the output to be byte-identical at every K.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "constellation: sats=%d adjacencies=%d flows=%d unroutable=%d window=%s rounds=%d events=%d end=%s\n",
		r.Sats, r.Adjacencies, r.Flows, r.Unroutable, sim.Duration(r.Window), r.Rounds, r.Events, r.EndTime)
	fmt.Fprintf(&b, "delivery: offered=%d delivered=%d delay p50=%s p95=%s max=%s makespan=%s\n",
		r.Offered, r.Delivered, r.DelayP50, r.DelayP95, r.DelayMax, r.Makespan)
	fmt.Fprintf(&b, "links: handover=%d frames sent=%d delivered=%d lost=%d control=%d retx=%d bits=%d util=%.6f\n",
		r.Handover, r.FramesSent, r.FramesDelivered, r.FramesLost, r.ControlFrames, r.Retransmissions, r.BitsSent, r.Utilization)
	return b.String()
}

// span is one usable interval of an adjacency within [0, horizon].
type span struct{ start, end time.Duration }

// adjacency is one undirected crosslink: satellites u < v, their geometry,
// and the precomputed usability schedule.
type adjacency struct {
	u, v  int
	cross bool
	geom  orbit.Link
	spans []span
	// always marks an adjacency usable throughout the horizon; routes are
	// computed over always-adjacencies only, so no flow ever depends on a
	// link mid-handover.
	always             bool
	minDelay, maxDelay sim.Duration
}

// upAt reports the usability state at time t according to the spans.
func (a *adjacency) upAt(t time.Duration) bool {
	for _, s := range a.spans {
		if s.start <= t && t < s.end {
			return true
		}
	}
	return false
}

// scanSpans samples usable at step resolution over [0, horizon] and
// bisects each transition to millisecond precision, mirroring
// orbit.Link.Windows. The edge times are pure functions of the geometry —
// never of the partitioning — so every shard count sees identical
// handover schedules.
func scanSpans(usable func(time.Duration) bool, horizon, step time.Duration) []span {
	bisect := func(lo, hi time.Duration, want bool) time.Duration {
		for hi-lo > time.Millisecond {
			mid := lo + (hi-lo)/2
			if usable(mid) == want {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi
	}
	var spans []span
	open := false
	var start time.Duration
	if usable(0) {
		open = true
	}
	prev := time.Duration(0)
	for t := step; ; t += step {
		if t > horizon {
			t = horizon
		}
		up := usable(t)
		if up != open {
			edge := bisect(prev, t, up)
			if up {
				start, open = edge, true
			} else {
				spans = append(spans, span{start, edge})
				open = false
			}
		}
		prev = t
		if t == horizon {
			break
		}
	}
	if open {
		spans = append(spans, span{start, horizon})
	}
	return spans
}

// buildAdjacencies enumerates the grid crosslinks in canonical order —
// every intra-plane ring edge plane-major, then every cross-plane rung —
// and precomputes each one's usability spans and delay envelope.
func buildAdjacencies(cfg Config, orbits []orbit.Orbit) []adjacency {
	w := cfg.Walker
	sat := func(p, s int) int { return p*w.PerPlane + s }
	var adjs []adjacency
	add := func(u, v int, cross bool) {
		if u > v {
			u, v = v, u
		}
		adjs = append(adjs, adjacency{u: u, v: v, cross: cross,
			geom: orbit.Link{A: orbits[u], B: orbits[v]}})
	}
	if w.PerPlane >= 2 {
		for p := 0; p < w.Planes; p++ {
			for s := 0; s < w.PerPlane; s++ {
				if w.PerPlane == 2 && s == 1 {
					break // the 2-ring has a single edge
				}
				add(sat(p, s), sat(p, (s+1)%w.PerPlane), false)
			}
		}
	}
	if w.Planes >= 2 {
		for p := 0; p < w.Planes; p++ {
			if w.Planes == 2 && p == 1 {
				break
			}
			for s := 0; s < w.PerPlane; s++ {
				add(sat(p, s), sat((p+1)%w.Planes, s), true)
			}
		}
	}

	step := time.Second
	polar := cfg.PolarDeg * math.Pi / 180
	horizon := time.Duration(cfg.Horizon)
	for i := range adjs {
		a := &adjs[i]
		usable := func(t time.Duration) bool {
			if !a.geom.Visible(t) {
				return false
			}
			if a.cross && polar > 0 {
				if math.Abs(a.geom.A.Latitude(t)) > polar || math.Abs(a.geom.B.Latitude(t)) > polar {
					return false
				}
			}
			return true
		}
		a.spans = scanSpans(usable, horizon, step)
		a.always = len(a.spans) == 1 && a.spans[0].start == 0 && a.spans[0].end == horizon

		lo, hi := sim.Duration(math.MaxInt64), sim.Duration(0)
		for t := time.Duration(0); ; t += step {
			if t > horizon {
				t = horizon
			}
			d := orbit.PropagationDelay(a.geom.RangeM(t))
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
			if t == horizon {
				break
			}
		}
		a.minDelay, a.maxDelay = lo, hi
	}
	return adjs
}

// lookahead derives the engine window: the minimum propagation delay over
// every adjacency across the horizon, minus the sampling safety margin.
// It is a pure function of the geometry, never of K.
func lookahead(adjs []adjacency) (sim.Duration, error) {
	w := sim.Duration(math.MaxInt64)
	for i := range adjs {
		if adjs[i].minDelay < w {
			w = adjs[i].minDelay
		}
	}
	w -= orbit.PropagationDelay(relVelMS * time.Second.Seconds())
	if w <= 0 {
		return 0, fmt.Errorf("shard: degenerate geometry: lookahead window %v (satellites too close)", w)
	}
	return w, nil
}

// flowState is one measured end-to-end flow. sent is written only by the
// source's shard, delivered/mismatched/delays/last only by the
// destination's, whose scheduler (home) lends delays its arrays; the
// coordinator reads them at round barriers.
type flowState struct {
	src, dst   node.ID
	routable   bool
	sent       int
	delivered  int
	mismatched int
	last       sim.Time
	home       *sim.Scheduler
	delays     []sim.Duration
}

// delayLists are the arrays of the flows' delay lists and of the report's
// merged one, from the run memory.
var delayLists = sim.NewSlices[sim.Duration]()

// session is one directed DLC adjacency direction, kept for report
// aggregation in canonical order.
type session struct {
	link *channel.Link
	pair *arq.Pair
}

// Constellation is a fully built scenario, ready to run once. Splitting
// construction from execution lets benchmarks time (and measure the
// allocations of) the event loop separately from scenario building.
type Constellation struct {
	cfg      Config
	eng      *Engine
	window   sim.Duration
	adjs     int
	nodes    []*node.Node
	sessions []session
	flows    []flowState
	handover int
	ran      bool
}

// Run executes one constellation scenario and returns its report. The
// report's Render output is bit-identical for every cfg.Shards ≥ 1.
func Run(cfg Config) (Report, error) {
	c, err := Build(cfg)
	if err != nil {
		return Report{}, err
	}
	return c.Run(), nil
}

// Build validates cfg and constructs the whole scenario — geometry,
// engine, sessions, handover schedule, routes and flows — without
// advancing simulated time.
func Build(cfg Config) (*Constellation, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Each spec is parsed once; every pipe below gets its own instances.
	newI, err := channel.ModelFactory(cfg.IModelSpec)
	if err != nil {
		return nil, err
	}
	newC, err := channel.ModelFactory(cfg.CModelSpec)
	if err != nil {
		return nil, err
	}
	w := cfg.Walker
	n := w.Total()
	orbits := w.Orbits()
	adjs := buildAdjacencies(cfg, orbits)
	window, err := lookahead(adjs)
	if err != nil {
		return nil, err
	}

	eng := New(cfg.Shards, window)
	shardOf := func(i int) *Shard { return eng.Shard(i * cfg.Shards / n) }

	// One node per satellite, homed on its shard's scheduler. The node-wide
	// engine is only the default node.Connect uses, which the
	// constellation never uses — every session is per-adjacency.
	var maxDelay sim.Duration
	for i := range adjs {
		if adjs[i].maxDelay > maxDelay {
			maxDelay = adjs[i].maxDelay
		}
	}
	reg, err := arq.ParseProtocol(cfg.Proto)
	if err != nil {
		return nil, err
	}
	defEng := reg.Defaults(2 * maxDelay)
	nodes := make([]*node.Node, n)
	for i := range nodes {
		nodes[i] = node.New(shardOf(i).Scheduler(), node.ID(i), defEng)
	}

	// Sessions: each adjacency carries one directed DLC session per
	// direction, each over its own split link. Lane numbering, RNG streams
	// and engine round trips are all keyed by adjacency index, so they are
	// identical at every K.
	sessions := make([]session, 0, 2*len(adjs))
	for ai := range adjs {
		a := &adjs[ai]
		linkEng := reg.Defaults(2 * a.maxDelay)
		pc := channel.PipeConfig{RateBps: cfg.RateBps, Delay: channel.OrbitDelay(a.geom, 0)}
		for dir := 0; dir < 2; dir++ {
			src, dst := a.u, a.v
			if dir == 1 {
				src, dst = a.v, a.u
			}
			si := 2*ai + dir
			rng := sim.NewRNG(sim.DeriveSeed(cfg.Seed, si))
			ss, ds := shardOf(src), shardOf(dst)
			ab, ba := pc, pc
			ab.IModel, ab.CModel = newI(), newC()
			ba.IModel, ba.CModel = newI(), newC()
			link := channel.NewSplitLink(ss.Scheduler(), ds.Scheduler(), ab, ba, rng)
			pair := nodes[src].AttachSplit(nodes[dst], link, linkEng)
			eng.Wire(ss, ds, link.AtoB, uint32(2*si))
			eng.Wire(ds, ss, link.BtoA, uint32(2*si+1))
			sessions = append(sessions, session{link: link, pair: pair})
		}
	}

	// Handover schedule. Each transition toggles both directions of the
	// adjacency. A remote pipe's down flag belongs to its transmit shard
	// and its rxDown flag to its receive shard, so each transition is two
	// simultaneous events — one per shard — each flipping exactly the four
	// flags that shard owns. For session u→v over link uv and session v→u
	// over link vu: shard(u) owns uv.AtoB.down, vu.BtoA.down,
	// vu.AtoB.rxDown and uv.BtoA.rxDown; shard(v) owns the mirror set.
	// Up-transitions are delayed by the retarget time; a usable window
	// shorter than the retarget never comes up at all.
	handover := 0
	for ai := range adjs {
		a := &adjs[ai]
		su, sv := shardOf(a.u), shardOf(a.v)
		uv, vu := sessions[2*ai].link, sessions[2*ai+1].link
		atU := func(down bool) {
			uv.AtoB.SetDown(down)
			vu.BtoA.SetDown(down)
			vu.AtoB.SetRxDown(down)
			uv.BtoA.SetRxDown(down)
		}
		atV := func(down bool) {
			vu.AtoB.SetDown(down)
			uv.BtoA.SetDown(down)
			uv.AtoB.SetRxDown(down)
			vu.BtoA.SetRxDown(down)
		}
		if !a.upAt(0) {
			atU(true) // pre-run: no ownership constraint yet
			atV(true)
		}
		schedule := func(at time.Duration, down bool) {
			t := sim.Time(0).Add(at)
			su.Scheduler().ScheduleDetached(t, func() { atU(down) })
			sv.Scheduler().ScheduleDetached(t, func() { atV(down) })
			handover++
		}
		for _, s := range a.spans {
			if s.start > 0 {
				up := s.start + time.Duration(cfg.Retarget)
				if up >= s.end {
					continue // window shorter than re-acquisition: stays down
				}
				schedule(up, false)
			}
			if s.end < time.Duration(cfg.Horizon) {
				schedule(s.end, true)
			}
		}
	}

	// Routing: shortest paths over the adjacencies usable throughout the
	// horizon, BFS per flow destination with neighbors visited in index
	// order.
	neighbors := make([][]int, n)
	for i := range adjs {
		if !adjs[i].always {
			continue
		}
		a := &adjs[i]
		neighbors[a.u] = append(neighbors[a.u], a.v)
		neighbors[a.v] = append(neighbors[a.v], a.u)
	}
	for i := range neighbors {
		sort.Ints(neighbors[i])
	}

	nf := min(cfg.Flows, n/2)
	flows := make([]flowState, 0, nf)
	perm := sim.NewRNG(sim.DeriveSeed(cfg.Seed, flowStream)).Perm(n)
	parent := make([]int, n)
	queue := make([]int, 0, n)
	for f := 0; f < nf; f++ {
		dst := perm[f]
		src := perm[(f+n/2)%n]
		// BFS from dst installs next hops toward dst at every reachable
		// node; the flow is routable iff src is among them.
		for i := range parent {
			parent[i] = -1
		}
		parent[dst] = dst
		queue = append(queue[:0], dst)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range neighbors[u] {
				if parent[v] < 0 {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		for i := range parent {
			if i != dst && parent[i] >= 0 {
				nodes[i].SetRoute(node.ID(dst), node.ID(parent[i]))
			}
		}
		flows = append(flows, flowState{src: node.ID(src), dst: node.ID(dst), routable: parent[src] >= 0})
	}

	// Feeds and delivery measurement. A datagram's send time is a pure
	// function of (flow, seq), so the destination needs no timestamp in
	// the payload to measure delay.
	payload := make([]byte, cfg.PayloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	interval := cfg.OfferInterval
	for fi := range flows {
		fl := &flows[fi]
		if !fl.routable {
			continue
		}
		srcNode := nodes[fl.src]
		srcSched := shardOf(int(fl.src)).Scheduler()
		var tick func()
		tick = func() {
			srcNode.Send(fl.dst, payload)
			fl.sent++
			if fl.sent < cfg.DatagramsPerFlow {
				srcSched.ScheduleAfterDetached(interval, tick)
			}
		}
		srcSched.ScheduleDetached(0, tick)
		fl.home = shardOf(int(fl.dst)).Scheduler()
		nodes[fl.dst].OnDeliver = func(now sim.Time, p node.Packet) {
			if p.Src != fl.src {
				return
			}
			if !bytes.Equal(p.Payload, payload) {
				fl.mismatched++
			}
			sent := sim.Time(0).Add(sim.Duration(p.Seq) * interval)
			fl.delays = append(delayLists.Grow(fl.home, fl.delays, 1), now.Sub(sent))
			fl.delivered++
			if now.After(fl.last) {
				fl.last = now
			}
		}
	}

	return &Constellation{
		cfg:      cfg,
		eng:      eng,
		window:   window,
		adjs:     len(adjs),
		nodes:    nodes,
		sessions: sessions,
		flows:    flows,
		handover: handover,
	}, nil
}

// Run executes the built scenario to completion (or the horizon) and
// aggregates the report in canonical order — flows, then sessions —
// independent of the partitioning. It may be called once.
func (c *Constellation) Run() Report {
	if c.ran {
		panic("shard: Constellation.Run called twice")
	}
	c.ran = true
	cfg, flows := c.cfg, c.flows

	stop := func() bool {
		if cfg.RunToHorizon {
			return false
		}
		for fi := range flows {
			fl := &flows[fi]
			if !fl.routable {
				continue
			}
			if fl.sent < cfg.DatagramsPerFlow || fl.delivered < fl.sent {
				return false
			}
		}
		return true
	}

	rounds := c.eng.Run(cfg.Horizon, stop)
	c.eng.DropInflight()

	r := Report{
		Sats:        cfg.Walker.Total(),
		Adjacencies: c.adjs,
		Flows:       len(flows),
		Shards:      cfg.Shards,
		Window:      c.window,
		Rounds:      rounds,
		Events:      c.eng.Executed(),
		EndTime:     c.eng.Shard(0).Scheduler().Now(),
		Handover:    c.handover,
		Host:        c.eng.Stats(),
	}
	sched0 := c.eng.Shard(0).Scheduler()
	var delays []sim.Duration
	for fi := range flows {
		fl := &flows[fi]
		if !fl.routable {
			r.Unroutable++
		}
		r.Offered += uint64(fl.sent)
		r.Delivered += uint64(fl.delivered)
		r.Mismatched += uint64(fl.mismatched)
		if fl.last.After(r.Makespan) {
			r.Makespan = fl.last
		}
		delays = append(delayLists.Grow(sched0, delays, len(fl.delays)), fl.delays...)
	}
	slices.Sort(delays)
	if m := len(delays); m > 0 {
		i95 := m * 95 / 100
		if i95 >= m {
			i95 = m - 1
		}
		r.DelayP50 = delays[m/2]
		r.DelayP95 = delays[i95]
		r.DelayMax = delays[m-1]
	}
	for _, s := range c.sessions {
		for _, p := range []*channel.Pipe{s.link.AtoB, s.link.BtoA} {
			r.FramesSent += p.Stats.FramesSent.Value()
			r.FramesDelivered += p.Stats.FramesDelivered.Value()
			r.FramesLost += p.Stats.FramesLost.Value() + p.Stats.FramesLostTx.Value()
			r.ControlFrames += p.Stats.CFrames.Value()
			r.BitsSent += p.Stats.BitsSent.Value()
		}
		r.Retransmissions += s.pair.Metrics().Retransmissions.Value()
	}
	if capacity := cfg.RateBps * r.EndTime.Seconds() * float64(4*c.adjs); capacity > 0 {
		r.Utilization = float64(r.BitsSent) / capacity
	}
	// Everything is read out and no frame is in flight (DropInflight), so no
	// packet of the run can be reached any more: hand back every buffer the
	// run grew — sending buffers and their entries, receive buffers,
	// resequencers, node tables, packet slabs, delay lists — and then each
	// shard's run memory — events, the standing timers still on its wheel,
	// frames, the mailboxes — to the next constellation. The depot hands out
	// the last memory donated first, and New adopts in shard order, so
	// donating in reverse gives each shard of the next engine the memory its
	// own index grew: at K = 2 a shard's sources and destinations are not
	// its neighbour's, and a swapped memory refills for a run.
	delayLists.Put(sched0, delays)
	for fi := range flows {
		delayLists.Put(flows[fi].home, flows[fi].delays)
		flows[fi].delays = nil
	}
	for _, n := range c.nodes {
		n.Recycle()
	}
	for i := c.eng.Shards() - 1; i >= 0; i-- {
		c.eng.Shard(i).Scheduler().Recycle()
	}
	return r
}
