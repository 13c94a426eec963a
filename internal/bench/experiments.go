package bench

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/arq"
	"repro/internal/channel"
	_ "repro/internal/engines" // E18/E20 sweep the full engine registry
	"repro/internal/faults"
	"repro/internal/fec"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Base returns the canonical scenario of the paper's environment: a
// 4,000 km laser crosslink at 300 Mbps with 1 KiB I-frames, checkpointed
// every 10 ms at depth 3, against SR-HDLC with a 64-frame window and
// α = R/2 of timeout slack.
func Base() RunConfig {
	return RunConfig{
		Protocol:     LAMS,
		N:            2000,
		PayloadBytes: 1024,
		RateBps:      300e6,
		OneWay:       13340 * sim.Microsecond, // 4,000 km
		Icp:          10 * sim.Millisecond,
		Cdepth:       3,
		W:            64,
		Alpha:        13 * sim.Millisecond,
		Tproc:        10 * sim.Microsecond, // < t_f: the receive buffer stays transparent (§3.4)
		Seed:         1,
	}
}

// withErrors sets fixed per-frame error probabilities (%g round-trips a
// float64 exactly).
func withErrors(c RunConfig, pf, pc float64) RunConfig {
	c.IModelSpec = fmt.Sprintf("fixed:p=%g", pf)
	c.CModelSpec = fmt.Sprintf("fixed:p=%g", pc)
	return c
}

// E1MeanPeriods regenerates the s̄ comparison: the mean number of
// transmissions per delivered I-frame for LAMS-DLC vs SR-HDLC, swept over
// the I-frame error probability, against the closed forms
// s̄_LAMS = 1/(1−P_F) and s̄_HDLC = 1/(1−(P_F+P_C−P_F·P_C)).
func E1MeanPeriods() *Result {
	r := &Result{
		ID:    "E1",
		Title: "mean transmissions per I-frame (s̄): NAK-only vs pos-ack ARQ",
		Table: stats.NewTable("", "P_F", "P_C", "s_LAMS(anal)", "s_LAMS(sim)", "s_HDLC(anal)", "s_HDLC(sim)"),
	}
	pcOf := func(pf float64) float64 { return pf / 4 } // piggyback-free control channel
	okShape := true
	okMatch := true
	pfs := []float64{0.02, 0.05, 0.1, 0.2, 0.3}
	cfgs := make([]RunConfig, 0, 2*len(pfs))
	for _, pf := range pfs {
		cl := withErrors(Base(), pf, pcOf(pf))
		cl.N = 3000
		ch := cl
		ch.Protocol = SRHDLC
		cfgs = append(cfgs, cl, ch)
	}
	results := RunMany(cfgs)
	for i, pf := range pfs {
		pc := pcOf(pf)
		lams, hd := results[2*i], results[2*i+1]
		p := cfgs[2*i].Analytical()
		r.Table.AddRowf(pf, pc, p.SBarLAMS(), lams.TransPerFrame, p.SBarHDLC(), hd.TransPerFrame)
		// Simulated HDLC acknowledges cumulatively, so its empirical s̄ is
		// a hair above LAMS rather than the model's full product form;
		// require the weak ordering in sim and the strict one analytically.
		if hd.TransPerFrame < lams.TransPerFrame-0.005 || p.SBarHDLC() <= p.SBarLAMS() {
			okShape = false
		}
		if !near(lams.TransPerFrame, p.SBarLAMS(), 0.06) {
			okMatch = false
		}
	}
	r.check("pos-ack retransmits more", okShape,
		"s̄_HDLC ≥ s̄_LAMS in simulation and strictly more in the model")
	r.check("LAMS matches 1/(1-P_F)", okMatch,
		"simulated s̄_LAMS within 6%% of the closed form")
	r.Notes = append(r.Notes,
		"the implemented SR-HDLC acknowledges cumulatively (one RR per window), so a lost ack",
		"rarely forces a retransmission; the model's per-frame-ack assumption makes the printed",
		"s̄_HDLC an upper bound. The gap the paper cares about reappears as window stall in E4/E6.")
	return r
}

// E2LowTrafficDelay regenerates the low-traffic D_low(N) comparison: total
// time to safely deliver N I-frames, analysis vs simulation, LAMS vs HDLC.
func E2LowTrafficDelay() *Result {
	r := &Result{
		ID:    "E2",
		Title: "low-traffic delivery time D_low(N)",
		Table: stats.NewTable("", "N", "LAMS anal", "LAMS sim", "HDLC anal", "HDLC sim"),
	}
	sLams := &stats.Series{Label: "lams"}
	sHdlc := &stats.Series{Label: "hdlc"}
	pf, pc := 0.05, 0.01
	ns := []int{8, 16, 32, 48, 64}
	cfgs := make([]RunConfig, 0, 2*len(ns))
	for _, n := range ns {
		cl := withErrors(Base(), pf, pc)
		cl.N = n
		ch := cl
		ch.Protocol = SRHDLC
		cfgs = append(cfgs, cl, ch)
	}
	results := RunMany(cfgs)
	for i, n := range ns {
		lams, hd := results[2*i], results[2*i+1]
		p := cfgs[2*i].Analytical()
		r.Table.AddRow(fmt.Sprint(n),
			fmtDur(analysis.Dur(p.DLowLAMS(n))), fmtDur(lams.Elapsed),
			fmtDur(analysis.Dur(p.DLowHDLC(n, analysis.PaperPrinted))), fmtDur(hd.Elapsed))
		sLams.Add(float64(n), lams.Elapsed.Seconds())
		sHdlc.Add(float64(n), hd.Elapsed.Seconds())
	}
	r.Series = []*stats.Series{sLams, sHdlc}
	r.check("delay grows with N", sLams.Monotone(1, 0.02) && sHdlc.Monotone(1, 0.02),
		"both protocols' D_low increase with N")
	// §4's verdict at low traffic: "nearly equivalent if s̄_LAMS equals
	// s̄_HDLC and α is small", but α >> n̄_cp in a highly mobile network
	// tips it to LAMS. Check both regimes on the model, and that the
	// simulation lands within 2x of its analysis column.
	pSmall := withErrors(Base(), pf, pc).Analytical()
	if !near(pSmall.DLowLAMS(64), pSmall.DLowHDLC(64, analysis.PaperPrinted), 0.35) {
		r.check("small-α regime nearly equivalent", false,
			"D_low differs by more than 35%% at α=R/2")
	} else {
		r.check("small-α regime nearly equivalent", true,
			"LAMS %.4gs vs HDLC %.4gs", pSmall.DLowLAMS(64), pSmall.DLowHDLC(64, analysis.PaperPrinted))
	}
	pBig := pSmall
	pBig.Alpha = 0.5 // a highly mobile constellation
	r.check("large-α regime favours LAMS", pBig.DLowHDLC(64, analysis.PaperPrinted) > pBig.DLowLAMS(64),
		"at α=500ms: HDLC %.4gs vs LAMS %.4gs", pBig.DLowHDLC(64, analysis.PaperPrinted), pBig.DLowLAMS(64))
	okClose := true
	for i, pt := range sLams.Points {
		n := int(pt.X)
		if pt.Y > 2*pSmall.DLowLAMS(n) || sHdlc.Points[i].Y > 2*pSmall.DLowHDLC(n, analysis.PaperPrinted) {
			okClose = false
		}
	}
	r.check("simulation tracks the model", okClose, "sim delays within 2x of the closed forms")
	return r
}

// E3HoldingAndBuffer regenerates the holding-time and transparent-buffer
// table: mean sender holding time H_frame and buffer occupancy for
// LAMS-DLC (finite, ≈ B_LAMS) vs SR-HDLC (backlog grows without bound
// under sustained arrivals).
func E3HoldingAndBuffer() *Result {
	r := &Result{
		ID:    "E3",
		Title: "holding time H_frame and transparent buffer size B_LAMS",
		Table: stats.NewTable("", "P_F", "H anal", "H sim", "B_LAMS anal", "sbuf sim(max)", "HDLC backlog@end"),
	}
	okHold := true
	okBuf := true
	okHdlc := false
	pfs := []float64{0.01, 0.05, 0.1, 0.2}
	cfgs := make([]RunConfig, 0, 2*len(pfs))
	for _, pf := range pfs {
		cl := withErrors(Base(), pf, pf/4)
		p := cl.Analytical()

		// Both protocols under the §4 buffer model: sustained arrivals
		// just inside LAMS-DLC's sustainable rate 1/(s̄·t_f) — the wire
		// must carry s̄ transmissions per delivered frame, so offering at
		// the raw 1/t_f of the paper's idealized deterministic model
		// would overload any ARQ. LAMS's occupancy must stabilize near
		// B_LAMS; the SR-HDLC backlog accumulates without bound because
		// every window turn wastes a round trip.
		cl.N = 80000
		cl.OfferInterval = sim.Duration(1.1 * p.SBarLAMS() * p.Tf * float64(sim.Second))
		cl.Horizon = 2 * sim.Second
		ch := cl
		ch.Protocol = SRHDLC
		cfgs = append(cfgs, cl, ch)
	}
	results := RunMany(cfgs)
	for i, pf := range pfs {
		cl := cfgs[2*i]
		lams, hd := results[2*i], results[2*i+1]
		p := cl.Analytical()

		r.Table.AddRow(fmt.Sprint(pf),
			fmtDur(analysis.Dur(p.HFrameLAMS())), fmtDur(lams.MeanHolding),
			fmt.Sprintf("%.0f", p.BLAMS()), fmt.Sprintf("%.0f", lams.SendBufMax),
			fmt.Sprint(hd.FinalBacklog))
		if !near(float64(lams.MeanHolding), p.HFrameLAMS()*float64(sim.Second), 0.25) {
			okHold = false
		}
		if lams.SendBufMax > 3*p.BLAMS() {
			okBuf = false
		}
		if hd.FinalBacklog > 4*cl.W {
			okHdlc = true // backlog clearly outgrew the window at least once
		}
	}
	r.check("holding matches s̄(R+t_f+t_c+t_proc+(n̄cp−½)I_cp)", okHold,
		"simulated mean holding within 25%% of H_frame")
	r.check("LAMS buffer transparent", okBuf,
		"sender occupancy bounded by ~B_LAMS under saturation")
	r.check("HDLC buffer diverges", okHdlc,
		"SR-HDLC backlog grows far beyond its window under 1/t_f arrivals")
	return r
}

// E4ThroughputVsTraffic regenerates the headline figure: throughput
// efficiency η as channel traffic N grows, LAMS-DLC vs SR-HDLC, analysis
// and simulation.
func E4ThroughputVsTraffic() *Result {
	r := &Result{
		ID:    "E4",
		Title: "throughput efficiency η vs channel traffic N (high traffic)",
		Table: stats.NewTable("", "N", "η_LAMS anal", "η_LAMS sim", "η_HDLC anal", "η_HDLC sim", "gain sim"),
	}
	sL := &stats.Series{Label: "lams-sim"}
	sH := &stats.Series{Label: "hdlc-sim"}
	pf, pc := 0.05, 0.0125
	ns := []int{250, 500, 1000, 2000, 4000, 8000}
	cfgs := make([]RunConfig, 0, 2*len(ns))
	for _, n := range ns {
		cl := withErrors(Base(), pf, pc)
		cl.N = n
		ch := cl
		ch.Protocol = SRHDLC
		cfgs = append(cfgs, cl, ch)
	}
	results := RunMany(cfgs)
	for i, n := range ns {
		lams, hd := results[2*i], results[2*i+1]
		p := cfgs[2*i].Analytical()
		r.Table.AddRow(fmt.Sprint(n),
			fmt.Sprintf("%.3f", p.EtaLAMS(n)), fmt.Sprintf("%.3f", lams.Efficiency),
			fmt.Sprintf("%.3f", p.EtaHDLC(n, analysis.PaperPrinted)), fmt.Sprintf("%.3f", hd.Efficiency),
			fmtRatio(lams.Efficiency, hd.Efficiency))
		sL.Add(float64(n), lams.Efficiency)
		sH.Add(float64(n), hd.Efficiency)
	}
	r.Series = []*stats.Series{sL, sH}
	// Attach the protocol-internals view of the heaviest point per
	// protocol: the snapshot lets a reader reconcile the efficiency row
	// with what the layers actually did (first-tx vs retx vs control).
	last2 := len(results) - 2
	r.Snapshots = map[string]metrics.Snapshot{
		fmt.Sprintf("LAMS-DLC@N=%d", ns[len(ns)-1]): results[last2].Snapshot,
		fmt.Sprintf("SR-HDLC@N=%d", ns[len(ns)-1]):  results[last2+1].Snapshot,
	}
	r.check("η_LAMS rises with N", sL.Monotone(1, 0.03),
		"efficiency amortizes s̄R + δ as N grows")
	okWin := true
	for i := range sL.Points {
		if sL.Points[i].Y <= sH.Points[i].Y {
			okWin = false
		}
	}
	r.check("LAMS wins at every N", okWin, "η_LAMS(sim) > η_HDLC(sim) throughout")
	last := len(sL.Points) - 1
	r.check("the gap is large", sL.Points[last].Y > 3*sH.Points[last].Y,
		"η_LAMS %.3f vs η_HDLC %.3f at N=8000 (window-stall dominated)",
		sL.Points[last].Y, sH.Points[last].Y)
	return r
}

// E5ThroughputVsBER regenerates the η-vs-BER figure with FEC-derived frame
// error probabilities: I-frames on Hamming(7,4), control frames on the
// stronger repetition code (assumption 4).
func E5ThroughputVsBER() *Result {
	r := &Result{
		ID:    "E5",
		Title: "throughput efficiency η vs channel BER (FEC-derived P_F, P_C)",
		Table: stats.NewTable("", "BER", "P_F", "P_C", "η_LAMS sim", "η_HDLC sim", "gain"),
	}
	sL := &stats.Series{Label: "lams"}
	sH := &stats.Series{Label: "hdlc"}
	base := Base()
	frameBits := (base.PayloadBytes + 21) * 8
	ctrlBits := 20 * 8
	bers := []float64{1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 2e-3}
	cfgs := make([]RunConfig, 0, 2*len(bers))
	for _, ber := range bers {
		pf := fec.Hamming74.FrameErrorProb(ber, frameBits)
		pc := fec.Repetition3.FrameErrorProb(ber, ctrlBits)
		cl := withErrors(base, pf, pc)
		cl.N = 2000
		ch := cl
		ch.Protocol = SRHDLC
		cfgs = append(cfgs, cl, ch)
	}
	results := RunMany(cfgs)
	for i, ber := range bers {
		pf := fec.Hamming74.FrameErrorProb(ber, frameBits)
		pc := fec.Repetition3.FrameErrorProb(ber, ctrlBits)
		lams, hd := results[2*i], results[2*i+1]
		r.Table.AddRow(fmt.Sprintf("%.0e", ber),
			fmt.Sprintf("%.2e", pf), fmt.Sprintf("%.2e", pc),
			fmt.Sprintf("%.3f", lams.Efficiency), fmt.Sprintf("%.3f", hd.Efficiency),
			fmtRatio(lams.Efficiency, hd.Efficiency))
		sL.Add(ber, lams.Efficiency)
		sH.Add(ber, hd.Efficiency)
	}
	r.Series = []*stats.Series{sL, sH}
	r.check("η degrades with BER", sL.Monotone(-1, 0.03),
		"LAMS efficiency falls as the channel worsens")
	okWin := true
	for i := range sL.Points {
		if sL.Points[i].Y <= sH.Points[i].Y {
			okWin = false
		}
	}
	r.check("LAMS wins across the BER range", okWin, "η_LAMS > η_HDLC at every BER")
	return r
}

// E6ThroughputVsDistance regenerates the η-vs-link-distance figure across
// the paper's 2,000–10,000 km range, with α tied to R (mobile
// constellation).
func E6ThroughputVsDistance() *Result {
	r := &Result{
		ID:    "E6",
		Title: "throughput efficiency η vs link distance (2,000–10,000 km)",
		Table: stats.NewTable("", "km", "R", "η_LAMS sim", "η_HDLC sim", "gain"),
	}
	sL := &stats.Series{Label: "lams"}
	sH := &stats.Series{Label: "hdlc"}
	kms := []float64{2000, 4000, 6000, 8000, 10000}
	cfgs := make([]RunConfig, 0, 2*len(kms))
	for _, km := range kms {
		oneWay := sim.Duration(km * 1e3 / 2.99792458e8 * float64(sim.Second))
		cl := withErrors(Base(), 0.05, 0.0125)
		cl.OneWay = oneWay
		cl.Alpha = oneWay // α = R/2
		cl.N = 2000
		ch := cl
		ch.Protocol = SRHDLC
		cfgs = append(cfgs, cl, ch)
	}
	results := RunMany(cfgs)
	for i, km := range kms {
		oneWay := cfgs[2*i].OneWay
		lams, hd := results[2*i], results[2*i+1]
		r.Table.AddRow(fmt.Sprint(km), fmtDur(2*oneWay),
			fmt.Sprintf("%.3f", lams.Efficiency), fmt.Sprintf("%.3f", hd.Efficiency),
			fmtRatio(lams.Efficiency, hd.Efficiency))
		sL.Add(km, lams.Efficiency)
		sH.Add(km, hd.Efficiency)
	}
	r.Series = []*stats.Series{sL, sH}
	r.check("HDLC degrades with distance", sH.Monotone(-1, 0.03),
		"window stall grows with R")
	gainFirst := sL.Points[0].Y / sH.Points[0].Y
	gainLast := sL.Points[len(sL.Points)-1].Y / sH.Points[len(sH.Points)-1].Y
	r.check("LAMS advantage grows with distance", gainLast > gainFirst,
		"gain %.1fx at 2,000 km vs %.1fx at 10,000 km", gainFirst, gainLast)
	return r
}

// E7BurstResilience regenerates the §3.3 burst-error claim: cumulative
// NAKs ride out bursts shorter than C_depth·W_cp without resynchronization,
// where an event-based pos-ack scheme loses a window.
func E7BurstResilience() *Result {
	r := &Result{
		ID:    "E7",
		Title: "burst errors: cumulative NAK vs C_depth·W_cp (30ms here)",
		Table: stats.NewTable("", "burst", "vs CdWcp", "LAMS dlv", "dup", "LAMS η", "recoveries", "HDLC dlv", "HDLC η"),
	}
	base := Base()
	cdwcp := sim.Scale(base.Icp, base.Cdepth)
	okShort := true
	okNoRecovery := true
	okLoss := true
	bursts := []sim.Duration{5 * sim.Millisecond, 15 * sim.Millisecond, 25 * sim.Millisecond, 60 * sim.Millisecond}
	cfgs := make([]RunConfig, 0, 2*len(bursts))
	for _, burst := range bursts {
		cl := Base()
		cl.N = 3000
		cl.IModelSpec = fmt.Sprintf("burst:period=250ms,len=%v,offset=40ms,ber=1e-7", burst)
		cl.CModelSpec = cl.IModelSpec
		ch := cl
		ch.Protocol = SRHDLC
		cfgs = append(cfgs, cl, ch)
	}
	results := RunMany(cfgs)
	for i, burst := range bursts {
		cl, ch := cfgs[2*i], cfgs[2*i+1]
		lams, hd := results[2*i], results[2*i+1]
		rel := "<"
		if burst > cdwcp {
			rel = ">"
		}
		r.Table.AddRow(fmtDur(burst), rel,
			fmt.Sprint(cl.N-lams.Lost), fmt.Sprint(lams.Duplicates),
			fmt.Sprintf("%.3f", lams.Efficiency), fmt.Sprint(lams.Recoveries),
			fmt.Sprint(uint64(ch.N)-uint64(hd.Lost)), fmt.Sprintf("%.3f", hd.Efficiency))
		if lams.Lost > 0 || hd.Lost > 0 {
			okLoss = false
		}
		if burst < cdwcp && lams.Failures > 0 {
			okShort = false
		}
		if burst < cdwcp && lams.Recoveries > 0 {
			okNoRecovery = false
		}
	}
	r.check("zero loss through every burst", okLoss,
		"all datagrams delivered regardless of burst length")
	r.check("short bursts never trigger enforced recovery", okNoRecovery,
		"cumulative NAKs absorb bursts < C_depth*W_cp without resynchronization (§3.3)")
	r.check("short bursts never simulate link failure", okShort,
		"no failure declarations for bursts < C_depth*W_cp")
	return r
}

// E8FailureDetection regenerates the inconsistency-gap / failure-detection
// bound: the time from killing the link to the sender declaring failure,
// swept over C_depth, against the expected response + C_depth·W_cp bound.
func E8FailureDetection() *Result {
	r := &Result{
		ID:    "E8",
		Title: "link-failure detection latency vs C_depth",
		Table: stats.NewTable("", "C_depth", "bound", "detected", "within"),
	}
	okBound := true
	okMono := true
	cds := []int{1, 2, 3, 5, 8}
	// E8 drives its own scheduler (link kill mid-run) rather than Run, so it
	// rides the engine's worker pool directly.
	type e8point struct {
		bound, detect sim.Duration
		within        bool
	}
	points := mapIndexed(len(cds), func(pi int) e8point {
		base := Base()
		base.Cdepth = cds[pi]
		cfg := base.engine()
		sched := sim.NewScheduler()
		ab, _ := base.pipes()
		link := channel.NewLink(sched, ab, sim.NewRNG(7))
		var failedAt sim.Time
		pair := arq.NewPair(sched, sched, link, cfg, nil, func(now sim.Time, _ string) { failedAt = now })
		pair.Start()
		for i := 0; i < 50; i++ {
			pair.Enqueue(arq.Datagram{ID: uint64(i), Payload: make([]byte, 512)})
		}
		sched.RunFor(300 * sim.Millisecond)
		killAt := sched.Now()
		link.Fail()
		sched.RunFor(10 * sim.Second)
		detect := failedAt.Sub(killAt)
		// Bound: the armed checkpoint timer (C_depth·W_cp plus phase
		// grace, plus one interval of phase) then the failure timer
		// (response + C_depth·W_cp).
		w := cfg.(arq.WindowsProvider).RecoveryWindows()
		bound := w.CheckpointTimer + base.Icp + w.FailureTimeout
		sched.Recycle() // as Run does: the run memory it adopted goes back
		return e8point{bound: bound, detect: detect, within: failedAt != 0 && detect <= bound}
	})
	prev := sim.Duration(0)
	for i, cd := range cds {
		pt := points[i]
		r.Table.AddRow(fmt.Sprint(cd), fmtDur(pt.bound), fmtDur(pt.detect), fmt.Sprint(pt.within))
		if !pt.within {
			okBound = false
		}
		if pt.detect < prev {
			okMono = false
		}
		prev = pt.detect
	}
	r.check("detection within the §3.2 bound", okBound,
		"declared within C_depth·W_cp + (response + C_depth·W_cp)")
	r.check("latency grows with C_depth", okMono,
		"deeper cumulation trades detection speed for burst immunity")
	return r
}

// E9FlowControl regenerates the §3.4 Stop-Go experiment: a receiver slower
// than the wire, swept over its buffer capacity.
func E9FlowControl() *Result {
	r := &Result{
		ID:    "E9",
		Title: "Stop-Go flow control with an overloaded receiver",
		Table: stats.NewTable("", "recvCap", "delivered", "dropped", "rateChanges", "finalRate", "lost"),
	}
	okLoss := true
	okEngaged := true
	caps := []int{8, 16, 32, 64}
	cfgs := make([]RunConfig, 0, len(caps))
	for _, cap := range caps {
		cl := Base()
		cl.N = 1500
		cl.RecvCap = cap
		cl.Tproc = 150 * sim.Microsecond // ~5× the frame time: receiver-bound
		cl.Horizon = 5 * sim.Minute
		cfgs = append(cfgs, cl)
	}
	results := RunMany(cfgs)
	for i, cap := range caps {
		res := results[i]
		r.Table.AddRow(fmt.Sprint(cap), fmt.Sprint(res.Delivered),
			fmt.Sprint(res.RecvDropped), fmt.Sprint(res.RateChanges),
			fmt.Sprintf("%.3f", res.FinalRate), fmt.Sprint(res.Lost))
		if res.Lost > 0 {
			okLoss = false
		}
		if res.RateChanges == 0 {
			okEngaged = false
		}
	}
	r.check("overflow discards never lose data", okLoss,
		"discarded frames are NAKed and retransmitted; zero datagram loss")
	r.check("Stop-Go engages", okEngaged,
		"the sender adjusted its rate under receiver overload")
	return r
}

// E10NumberingSize regenerates the §2.3/§3.3 numbering-size bound: the
// widest span of simultaneously live sequence numbers stays within the
// resolving period divided by t_f.
func E10NumberingSize() *Result {
	r := &Result{
		ID:    "E10",
		Title: "bounded numbering: live sequence span vs resolving-period bound",
		Table: stats.NewTable("", "P_F", "I_cp", "bound(frames)", "max span sim", "within"),
	}
	ok := true
	pfs := []float64{0.02, 0.1, 0.25}
	icps := []sim.Duration{5 * sim.Millisecond, 10 * sim.Millisecond, 20 * sim.Millisecond}
	cfgs := make([]RunConfig, 0, len(pfs)*len(icps))
	for _, pf := range pfs {
		for _, icp := range icps {
			cl := withErrors(Base(), pf, pf/4)
			cl.N = 4000
			cl.Icp = icp
			cfgs = append(cfgs, cl)
		}
	}
	results := RunMany(cfgs)
	for i, pf := range pfs {
		for j, icp := range icps {
			res := results[i*len(icps)+j]
			p := cfgs[i*len(icps)+j].Analytical()
			// The analytical bound assumes the sender is never idle; add
			// the holding-time inflation factor s̄ for the sweep's worst
			// case.
			bound := p.NumberingSizeLAMS() * p.SBarLAMS()
			within := float64(res.MaxLiveSpan) <= bound
			r.Table.AddRow(fmt.Sprint(pf), fmtDur(icp),
				fmt.Sprintf("%.0f", bound), fmt.Sprint(res.MaxLiveSpan), fmt.Sprint(within))
			if !within {
				ok = false
			}
		}
	}
	r.check("numbering size bounded", ok,
		"live span ≤ s̄·(R + ½I_cp + C_depth·I_cp)/t_f in every cell")
	return r
}

// E11Validation cross-checks the simulator against the closed forms on a
// grid: empirical s̄ vs 1/(1−P_F), holding time vs H_frame, and completion
// time vs D_high^LAMS.
func E11Validation() *Result {
	r := &Result{
		ID:    "E11",
		Title: "simulation vs analysis validation grid (LAMS-DLC)",
		Table: stats.NewTable("", "P_F", "P_C", "N", "s̄ anal/sim", "H anal/sim", "D anal/sim"),
	}
	okS, okH, okD := true, true, true
	pfs := []float64{0.02, 0.1, 0.2}
	pcs := []float64{0.002, 0.02}
	cfgs := make([]RunConfig, 0, len(pfs)*len(pcs))
	for _, pf := range pfs {
		for _, pc := range pcs {
			cl := withErrors(Base(), pf, pc)
			cl.N = 6000
			cfgs = append(cfgs, cl)
		}
	}
	results := RunMany(cfgs)
	for i, pf := range pfs {
		for j, pc := range pcs {
			n := 6000
			res := results[i*len(pcs)+j]
			p := cfgs[i*len(pcs)+j].Analytical()
			sA, sS := p.SBarLAMS(), res.TransPerFrame
			hA := p.HFrameLAMS() * float64(sim.Second)
			hS := float64(res.MeanHolding)
			dA := p.DHighLAMS(n) * float64(sim.Second)
			dS := float64(res.Elapsed)
			r.Table.AddRow(fmt.Sprint(pf), fmt.Sprint(pc), fmt.Sprint(n),
				fmt.Sprintf("%.3f/%.3f", sA, sS),
				fmt.Sprintf("%s/%s", fmtDur(sim.Duration(hA)), fmtDur(sim.Duration(hS))),
				fmt.Sprintf("%s/%s", fmtDur(sim.Duration(dA)), fmtDur(sim.Duration(dS))))
			if !near(sA, sS, 0.05) {
				okS = false
			}
			if !near(hA, hS, 0.25) {
				okH = false
			}
			if !near(dA, dS, 0.30) {
				okD = false
			}
		}
	}
	r.check("s̄ within 5%", okS, "transmissions per frame match the geometric model")
	r.check("holding within 25%", okH, "H_frame matches (the model folds t_f queueing into one term)")
	r.check("completion within 30%", okD,
		"D_high matches (the model measures to release, the sim to delivery)")
	return r
}

// E12VariantAblation re-evaluates the headline comparison under both
// readings of the paper's D_retrn^HDLC formula (the printed coefficients
// are swapped relative to its own derivation), showing the conclusions are
// insensitive to the typo.
func E12VariantAblation() *Result {
	r := &Result{
		ID:    "E12",
		Title: "HDLC D_retrn variant ablation (paper typo)",
		Table: stats.NewTable("", "P_F", "η_HDLC printed", "η_HDLC rederived", "η_LAMS", "LAMS wins both"),
	}
	ok := true
	n := 4000
	for _, pf := range []float64{0.02, 0.1, 0.25} {
		cl := withErrors(Base(), pf, pf/4)
		p := cl.Analytical()
		printed := p.EtaHDLC(n, analysis.PaperPrinted)
		rederived := p.EtaHDLC(n, analysis.Rederived)
		lams := p.EtaLAMS(n)
		wins := lams > printed && lams > rederived
		r.Table.AddRow(fmt.Sprint(pf),
			fmt.Sprintf("%.4f", printed), fmt.Sprintf("%.4f", rederived),
			fmt.Sprintf("%.4f", lams), fmt.Sprint(wins))
		if !wins {
			ok = false
		}
	}
	r.check("conclusion invariant to the typo", ok,
		"η_LAMS exceeds η_HDLC under both variants at every P_F")
	r.Notes = append(r.Notes,
		"printed form: α weighted by (1−P_F)(1−P_C); re-derived: α weighted by 1−(1−P_F)(1−P_C)")
	return r
}

// E13StutterAblation evaluates the Stutter/mixed-mode ARQ idea the paper's
// §1 surveys (Stutter GBN, SR+ST of Miller & Lin): use the idle time of the
// window-stalled SR sender to repeat unacknowledged frames. The experiment
// sweeps the frame error probability and compares SR-HDLC with and without
// stutter, and against LAMS-DLC (which has no idle time to harvest).
func E13StutterAblation() *Result {
	r := &Result{
		ID:    "E13",
		Title: "stutter (SR+ST) ablation: harvesting SR-HDLC's idle time",
		Table: stats.NewTable("", "P_F", "η SR", "η SR+ST", "extra tx SR+ST", "η LAMS"),
	}
	okNotWorse := true
	okStillLoses := true
	pfs := []float64{0.05, 0.15, 0.3}
	cfgs := make([]RunConfig, 0, 3*len(pfs))
	for _, pf := range pfs {
		base := withErrors(Base(), pf, pf/4)
		base.N = 1000
		sr := base
		sr.Protocol = SRHDLC
		st := sr
		st.Stutter = true
		cfgs = append(cfgs, sr, st, base)
	}
	results := RunMany(cfgs)
	for i, pf := range pfs {
		plain, stuttered, lams := results[3*i], results[3*i+1], results[3*i+2]
		extra := float64(stuttered.Retransmissions) / float64(cfgs[3*i+1].N)
		r.Table.AddRow(fmt.Sprint(pf),
			fmt.Sprintf("%.3f", plain.Efficiency),
			fmt.Sprintf("%.3f", stuttered.Efficiency),
			fmt.Sprintf("%.2f/frame", extra),
			fmt.Sprintf("%.3f", lams.Efficiency))
		if stuttered.Efficiency < plain.Efficiency*0.95 {
			okNotWorse = false
		}
		if lams.Efficiency <= stuttered.Efficiency {
			okStillLoses = false
		}
	}
	r.check("stutter never hurts goodput", okNotWorse,
		"repeats ride otherwise-idle capacity (≥95%% of plain SR at every P_F)")
	r.check("stutter cannot close the gap to LAMS", okStillLoses,
		"idle-time harvesting does not remove the window stall LAMS avoids")
	r.Notes = append(r.Notes,
		"stutter preempts timeout recovery: duplicates of damaged frames often arrive before the SREJ round trip completes")
	return r
}

// E14HybridFECTradeoff regenerates the ARQ+FEC trade the paper's §1–2
// survey frames (Type-I hybrid schemes): stronger codes pay a constant
// code-rate tax on every frame but suppress retransmissions. Sweeping the
// channel BER with LAMS-DLC under three I-frame codecs exposes the
// crossover: below it, uncoded ARQ wins (retransmissions are rare anyway);
// above it, the coded schemes win (the channel is too dirty for bare ARQ).
func E14HybridFECTradeoff() *Result {
	r := &Result{
		ID:    "E14",
		Title: "hybrid ARQ/FEC: code-rate tax vs retransmission savings (LAMS-DLC)",
		Table: stats.NewTable("", "BER", "η uncoded", "η hamming(7,4)", "η repetition-3"),
	}
	type codec struct {
		name   string
		fec    string // the scheme's spec name (fec.Named)
		scheme fec.Scheme
	}
	codecs := []codec{
		{"uncoded", "none", fec.Uncoded},
		{"hamming", "hamming74", fec.Hamming74},
		{"rep3", "rep3", fec.Repetition3},
	}
	series := map[string]*stats.Series{}
	for _, c := range codecs {
		series[c.name] = &stats.Series{Label: c.name}
	}
	bers := []float64{1e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3}
	frameBits := (Base().PayloadBytes + 21) * 8
	cfgs := make([]RunConfig, 0, len(bers)*len(codecs))
	for _, ber := range bers {
		for _, c := range codecs {
			cl := Base()
			// Large N so the per-frame code-rate tax dominates the
			// constant straggler-recovery tail; a tight horizon bounds
			// the hopeless uncoded runs at high BER (they report 0).
			cl.N = 5000
			cl.Horizon = 20 * sim.Second
			cl.IModelSpec = fmt.Sprintf("bsc:ber=%g,fec=%s", ber, c.fec)
			cl.CModelSpec = fmt.Sprintf("bsc:ber=%g,fec=rep3", ber)
			cl.IExpansion = c.scheme.Overhead()
			cl.CExpansion = fec.Repetition3.Overhead()
			cfgs = append(cfgs, cl)
		}
	}
	results := RunMany(cfgs)
	for i, ber := range bers {
		row := []string{fmt.Sprintf("%.0e", ber)}
		for j, c := range codecs {
			res := results[i*len(codecs)+j]
			eff := res.Efficiency
			if res.Lost > 0 {
				eff = 0 // could not complete within the horizon
			}
			row = append(row, fmt.Sprintf("%.3f", eff))
			series[c.name].Add(ber, eff)
		}
		r.Table.AddRow(row...)
	}
	r.Series = []*stats.Series{series["uncoded"], series["hamming"], series["rep3"]}
	// Shape: clean channel -> uncoded wins (no code-rate tax); dirty
	// channel -> hamming overtakes uncoded.
	un, ham := series["uncoded"], series["hamming"]
	r.check("clean channel favours bare ARQ", un.Points[0].Y > ham.Points[0].Y,
		"at BER %.0e: uncoded %.3f vs hamming %.3f", bers[0], un.Points[0].Y, ham.Points[0].Y)
	last := len(bers) - 1
	r.check("dirty channel favours coding", ham.Points[last].Y > un.Points[last].Y,
		"at BER %.0e: hamming %.3f vs uncoded %.3f", bers[last], ham.Points[last].Y, un.Points[last].Y)
	if x, ok := stats.Crossover(un, ham); ok {
		r.Notes = append(r.Notes, fmt.Sprintf("uncoded/hamming crossover near BER %.1e", x))
	}
	r.check("frame size matters", frameBits > 0, "sanity")
	return r
}

// E15InSequenceCost quantifies §2.3's reliability-constraint ladder on one
// link: Go-Back-N (discard out-of-order, full in-sequence at the link),
// Selective Repeat (hold out-of-order in a window-sized receive buffer),
// and LAMS-DLC (forward immediately, resequence at the destination).
func E15InSequenceCost() *Result {
	r := &Result{
		ID:    "E15",
		Title: "the cost of in-sequence delivery: GBN vs SR vs LAMS-DLC",
		Table: stats.NewTable("", "P_F", "η GBN", "η SR", "η LAMS", "GBN retx/frame", "SR rbuf(max)", "LAMS rbuf(max)"),
	}
	okLadder := true
	okBuffers := true
	pfs := []float64{0.02, 0.1, 0.25}
	cfgs := make([]RunConfig, 0, 3*len(pfs))
	for _, pf := range pfs {
		base := withErrors(Base(), pf, pf/4)
		base.N = 1000
		gbn := base
		gbn.Protocol = GBNHDLC
		sr := base
		sr.Protocol = SRHDLC
		cfgs = append(cfgs, gbn, sr, base)
	}
	results := RunMany(cfgs)
	for i, pf := range pfs {
		g, s, l := results[3*i], results[3*i+1], results[3*i+2]
		n := cfgs[3*i].N
		r.Table.AddRow(fmt.Sprint(pf),
			fmt.Sprintf("%.3f", g.Efficiency), fmt.Sprintf("%.3f", s.Efficiency),
			fmt.Sprintf("%.3f", l.Efficiency),
			fmt.Sprintf("%.2f", float64(g.Retransmissions)/float64(n)),
			fmt.Sprintf("%.0f", s.RecvBufMax), fmt.Sprintf("%.0f", l.RecvBufMax))
		if !(g.Efficiency <= s.Efficiency*1.02 && s.Efficiency < l.Efficiency) {
			okLadder = false
		}
		// SR must buffer out-of-order frames; LAMS's receive buffer stays
		// transparent (only frames awaiting t_proc).
		if s.RecvBufMax == 0 || l.RecvBufMax > s.RecvBufMax {
			okBuffers = false
		}
	}
	r.check("efficiency ladder η_GBN ≤ η_SR < η_LAMS", okLadder,
		"each relaxation of the in-sequence constraint buys throughput")
	r.check("receive-buffer ladder", okBuffers,
		"SR holds a window of out-of-order frames; the LAMS receive buffer is transparent")
	return r
}

// E16DelayThroughput regenerates the introduction's framing observation:
// "there is a tradeoff point between high user throughput and low user
// delay in end-to-end data transmission". Offered load sweeps from light to
// near-saturation; mean enqueue-to-delivery delay and achieved goodput are
// measured for LAMS-DLC with a transparent-sized sending buffer.
func E16DelayThroughput() *Result {
	r := &Result{
		ID:    "E16",
		Title: "delay vs throughput as offered load rises (LAMS-DLC)",
		Table: stats.NewTable("", "load", "goodput (Mb/s)", "mean delay", "sendbuf(mean)"),
	}
	sDelay := &stats.Series{Label: "delay"}
	sTput := &stats.Series{Label: "goodput"}
	pf, pc := 0.05, 0.0125
	base := withErrors(Base(), pf, pc)
	p := base.Analytical()
	// Sustainable inter-arrival: s̄·t_f.
	sustain := p.SBarLAMS() * p.Tf
	loads := []float64{0.3, 0.6, 0.9, 1.0, 1.1}
	cfgs := make([]RunConfig, 0, len(loads))
	for _, load := range loads {
		cl := base
		cl.Poisson = true // stochastic arrivals expose queueing delay
		cl.OfferInterval = sim.Duration(sustain / load * float64(sim.Second))
		cl.N = int(2.0 / (sustain / load)) // ~2 virtual seconds of arrivals
		cl.Horizon = sim.Minute
		cfgs = append(cfgs, cl)
	}
	results := RunMany(cfgs)
	for i, load := range loads {
		res := results[i]
		goodput := res.Efficiency * cfgs[i].RateBps / 1e6
		r.Table.AddRow(fmt.Sprintf("%.2f", load),
			fmt.Sprintf("%.1f", goodput),
			fmtDur(res.MeanDelay),
			fmt.Sprintf("%.1f", res.SendBufMean))
		sDelay.Add(load, res.MeanDelay.Seconds())
		sTput.Add(load, goodput)
	}
	r.Series = []*stats.Series{sDelay, sTput}
	r.check("throughput rises with load", sTput.Monotone(1, 0.05),
		"goodput tracks offered load below saturation")
	r.check("delay rises with load", sDelay.Monotone(1, 0.05),
		"queueing adds delay as the load point approaches saturation")
	first, last := sDelay.Points[0].Y, sDelay.Points[len(sDelay.Points)-1].Y
	r.check("the knee is visible", last > 2*first,
		"past saturation (110%% load) delay %.4gs dwarfs light-load delay %.4gs", last, first)
	return r
}

// E17CheckpointIntervalAblation sweeps W_cp, the protocol's central tuning
// knob. §3.4: "If we decrease the check point interval, that holding time
// will be decreased... the sending buffer is under control" — but each
// checkpoint costs control-channel capacity and receiver work. The sweep
// exposes both sides: holding time/buffer shrink with W_cp while the
// control-frame count grows inversely.
func E17CheckpointIntervalAblation() *Result {
	r := &Result{
		ID:    "E17",
		Title: "checkpoint interval W_cp ablation: holding time vs control overhead",
		Table: stats.NewTable("", "W_cp", "H anal", "H sim", "B_LAMS", "ctrl frames", "η"),
	}
	sHold := &stats.Series{Label: "holding"}
	sCtrl := &stats.Series{Label: "control"}
	okHold := true
	prevCtrl := uint64(1 << 62)
	okCtrl := true
	icps := []sim.Duration{2 * sim.Millisecond, 5 * sim.Millisecond,
		10 * sim.Millisecond, 20 * sim.Millisecond, 40 * sim.Millisecond}
	cfgs := make([]RunConfig, 0, len(icps))
	for _, icp := range icps {
		cl := withErrors(Base(), 0.05, 0.0125)
		cl.N = 3000
		cl.Icp = icp
		cfgs = append(cfgs, cl)
	}
	results := RunMany(cfgs)
	for i, icp := range icps {
		res := results[i]
		p := cfgs[i].Analytical()
		r.Table.AddRow(fmtDur(icp),
			fmtDur(analysis.Dur(p.HFrameLAMS())), fmtDur(res.MeanHolding),
			fmt.Sprintf("%.0f", p.BLAMS()),
			fmt.Sprint(res.ControlSent),
			fmt.Sprintf("%.3f", res.Efficiency))
		sHold.Add(icp.Seconds(), res.MeanHolding.Seconds())
		sCtrl.Add(icp.Seconds(), float64(res.ControlSent))
		if !near(res.MeanHolding.Seconds(), p.HFrameLAMS(), 0.3) {
			okHold = false
		}
		if res.ControlSent > prevCtrl {
			okCtrl = false
		}
		prevCtrl = res.ControlSent
	}
	r.Series = []*stats.Series{sHold, sCtrl}
	r.check("holding time grows with W_cp", sHold.Monotone(1, 0.05),
		"buffer control by shrinking the checkpoint interval works as §3.4 claims")
	r.check("holding matches the closed form across the sweep", okHold,
		"H_frame tracks s̄(R+t_f+t_c+t_proc+(n̄cp−½)W_cp) within 30%%")
	r.check("control overhead falls with W_cp", okCtrl,
		"fewer checkpoints per unit time at larger intervals")
	return r
}

// E18MultiHopRelay exercises the protocol-agnostic endpoint layer: every
// registered engine carries the same store-and-forward traffic across a
// 3-node relay line (src → transit → dst), and each must hand the
// destination every packet exactly once, in order — the reliability
// contract is per-protocol, but the network layer above it is one codebase.
// The table doubles as the registry's conformance report: a newly
// registered engine shows up (and is held to the contract) automatically.
func E18MultiHopRelay() *Result {
	r := &Result{
		ID:    "E18",
		Title: "multi-hop relay over every registered engine",
		Table: stats.NewTable("", "protocol", "delivered", "dup", "misordered", "fwd", "elapsed"),
	}
	const n = 400
	names := arq.Protocols()
	type e18point struct {
		display    string
		delivered  int
		misordered int
		forwarded  uint64
		dup        int
		elapsed    sim.Duration
	}
	points := mapIndexed(len(names), func(pi int) e18point {
		reg, err := arq.ParseProtocol(names[pi])
		if err != nil {
			panic(err)
		}
		sched := sim.NewScheduler()
		roundTrip := 2 * 6670 * sim.Microsecond // ~2,000 km hops
		eng := reg.Defaults(roundTrip)
		// Model specs, not instances: each hop's pipes instantiate their
		// own models inside channel.NewPipe — the spec path the node layer
		// (and anything else that fans one PipeConfig across many links)
		// must use for stateful models. FixedProb resolves to the exact
		// instances the hand-built config used, so draws are unchanged.
		pipe := channel.PipeConfig{
			RateBps:    300e6,
			Delay:      channel.ConstantDelay(6670 * sim.Microsecond),
			IModelSpec: "fixed:p=0.05",
			CModelSpec: "fixed:p=0.01",
		}
		nodes, _ := node.Line(sched, 3, eng, pipe, sim.NewRNG(uint64(41+pi)))
		src, dst := nodes[0], nodes[2]
		pt := e18point{display: reg.Display}
		seen := make(map[uint64]int, n)
		var last sim.Time
		dst.OnDeliver = func(now sim.Time, p node.Packet) {
			seen[p.Seq]++
			if p.Seq != uint64(pt.delivered) {
				pt.misordered++
			}
			pt.delivered++
			last = now
		}
		for i := 0; i < n; i++ {
			src.Send(2, []byte{byte(i), byte(i >> 8)})
		}
		sched.RunFor(30 * sim.Second)
		for _, k := range seen {
			if k > 1 {
				pt.dup += k - 1
			}
		}
		pt.forwarded = nodes[1].Stats.Forwarded.Value()
		pt.elapsed = sim.Duration(last)
		sched.Recycle() // as Run does: the run memory it adopted goes back
		return pt
	})
	okAll := true
	for _, pt := range points {
		r.Table.AddRow(pt.display, fmt.Sprint(pt.delivered), fmt.Sprint(pt.dup),
			fmt.Sprint(pt.misordered), fmt.Sprint(pt.forwarded), fmtDur(pt.elapsed))
		if pt.delivered != n || pt.dup != 0 || pt.misordered != 0 {
			okAll = false
		}
	}
	r.check("every engine relays exactly-once in order", okAll,
		"%d/%d packets per protocol, zero duplicates, zero misordering across 2 hops", n, n)
	return r
}

// E20CorruptionConvergence is the state-corruption fault sweep (ISSUE 9):
// every registry engine faces the scramble/ghost/reorder adversaries, alone
// and combined, under the §3.2 checker's convergence rule. The contract
// differs by engine and the table shows it: SS-ARQ (Dolev-style
// self-stabilizing) must converge from ANY state — corruption-era
// casualties excused, zero violations and zero failure declarations after
// its published bound. The legacy engines carry the BOUNDED contract:
// breaches inside the era are excused, a post-era N2/§3.2 failure
// declaration is legitimate triage (DESIGN.md §13), but an unexcused
// contract violation — silent loss, unexplained duplicate, wedged link with
// no declaration — fails the experiment for any engine.
func E20CorruptionConvergence() *Result {
	r := &Result{
		ID:    "E20",
		Title: "state-corruption sweep: convergence and casualties per engine",
		Table: stats.NewTable("", "engine", "schedule", "excused", "conv time", "violations", "failures", "delivered"),
	}
	schedules := []struct{ name, spec string }{
		{"scramble", "scramble@100ms+400ms:period=10ms"},
		{"ghost", "ghost@100ms+400ms:period=2ms"},
		{"reorder", "reorder@100ms+400ms:jitter=2ms"},
		{"all", "scramble@100ms+400ms:period=10ms; ghost@100ms+400ms:period=2ms; reorder@100ms+400ms:jitter=2ms"},
	}
	engines := []Protocol{LAMS, SRHDLC, GBNHDLC, "ssarq"}
	cfgs := make([]RunConfig, 0, len(engines)*len(schedules))
	for _, eng := range engines {
		for _, sch := range schedules {
			spec, err := faults.ParseSpec(sch.spec)
			if err != nil {
				panic(err)
			}
			c := Base()
			c.Protocol = eng
			c.N = 2000
			c.OfferInterval = 500 * sim.Microsecond // arrivals span the era
			c.Horizon = 30 * sim.Second
			c.N2 = 16 // corruption demands supervision: a wedged HDLC link must declare, not hang
			c.Faults = spec
			c.CheckInvariants = true
			cfgs = append(cfgs, c)
		}
	}
	results := RunMany(cfgs)
	ssarqClean, legacyClean, adversaryBit := true, true, false
	for i, res := range results {
		eng := engines[i/len(schedules)]
		sch := schedules[i%len(schedules)]
		r.Table.AddRow(eng.String(), sch.name,
			fmt.Sprint(res.ExcusedBreaches),
			fmtDur(res.ConvergenceTime),
			fmt.Sprint(len(res.Violations)),
			fmt.Sprint(res.Failures),
			fmt.Sprint(res.Delivered))
		if res.ExcusedBreaches > 0 {
			adversaryBit = true
		}
		if eng == "ssarq" && (len(res.Violations) > 0 || res.Failures > 0) {
			ssarqClean = false
		}
		if eng != "ssarq" && len(res.Violations) > 0 {
			legacyClean = false
			for _, v := range res.Violations {
				r.Notes = append(r.Notes, fmt.Sprintf("%s/%s: %s", eng.String(), sch.name, v))
			}
		}
	}
	r.check("ssarq self-stabilizes under every schedule", ssarqClean,
		"no violations, no failure declarations after the convergence bound")
	r.check("legacy engines hold the bounded contract", legacyClean,
		"era casualties excused; post-era breaches are fixes or documented triage, never silent")
	r.check("the adversary actually bit", adversaryBit,
		"at least one schedule produced excused corruption-era breaches")
	return r
}

// E21TraceReplay exercises the trace-driven channel engine end to end
// (Kuhn et al., arXiv 1205.3831: link-layer results need physical-layer
// error traces): a live Gilbert-Elliott run is recorded through
// channel.Recorder, the trace round-trips through the binary file format,
// and the reloaded trace is replayed against the SAME engine — the replayed
// run must be byte-identical to the live one (every counter of the metrics
// snapshot), for every registered engine. The same four traces then drive
// every OTHER engine too: the cross-replay rows show what a fixed recorded
// error process does to each protocol, which is the experimental setup the
// registry + trace seam exists for. The analytic P_F column renders "-":
// a Gilbert-Elliott channel has no closed-form per-frame probability, and
// pretending 0 was the bug the AnalyticModel capability fixed.
func E21TraceReplay() *Result {
	r := &Result{
		ID:    "E21",
		Title: "trace-driven channel record/replay over every registered engine",
		Table: stats.NewTable("", "protocol", "P_F(anal)", "delivered", "retx", "elapsed", "I-recs", "replay=live"),
	}
	const n = 400
	base := Base()
	base.N = n
	base.Seed = 21
	base.Horizon = 2 * sim.Minute
	// Tracking-loss bursts (§2.1) through the paper's FEC stack: ~4 ms bad
	// sojourns against a 10 ms checkpoint interval, control frames on the
	// stronger code.
	base.IModelSpec = "ge:gber=1e-7,bber=2e-3,mgood=40ms,mbad=4ms,fec=hamming74"
	base.CModelSpec = "ge:gber=1e-8,bber=5e-4,mgood=40ms,mbad=4ms,fec=rep3"

	// One pool item per engine: the record→replay pair of one engine is a
	// chain (the replay needs the recording), the engines are independent.
	type e21point struct {
		live  RunResult
		iRecs int
		same  bool
		pf    float64
	}
	names := arq.Protocols()
	points := mapIndexed(len(names), func(pi int) e21point {
		reg, err := arq.ParseProtocol(names[pi])
		if err != nil {
			panic(err)
		}
		cfg := base
		cfg.Protocol = Protocol(reg.Name)

		// Record the live run. The recording set belongs to this run alone.
		rec := channel.NewTraceSet()
		liveCfg := cfg
		liveCfg.RecordChannels = rec
		live := Run(liveCfg)

		// Round-trip the trace through the binary format before replaying,
		// so the byte-identity pin covers the file encoding too.
		var buf bytes.Buffer
		if err := rec.Encode(&buf); err != nil {
			panic(err)
		}
		loaded, err := channel.ReadTraceSet(&buf)
		if err != nil {
			panic(err)
		}
		replayCfg := cfg
		replayCfg.ReplayChannels = loaded
		replay := Run(replayCfg)

		return e21point{
			live:  live,
			iRecs: len(loaded.Get("ab/i").Recs),
			same: bytes.Equal(live.Snapshot.JSON(), replay.Snapshot.JSON()) &&
				live.Delivered == replay.Delivered && live.Elapsed == replay.Elapsed,
			pf: cfg.Analytical().PF,
		}
	})

	okReplay := true
	okAnalytic := true
	for _, pt := range points {
		if !pt.same {
			okReplay = false
		}
		if !math.IsNaN(pt.pf) {
			okAnalytic = false
		}
		r.Table.AddRow(pt.live.Protocol.String(), fmtProb(pt.pf),
			fmt.Sprint(pt.live.Delivered), fmt.Sprint(pt.live.Retransmissions),
			fmtDur(pt.live.Elapsed), fmt.Sprint(pt.iRecs), fmt.Sprint(pt.same))
	}
	r.check("replayed run is byte-identical to its recorded live run", okReplay,
		"full metrics snapshot equality across %d engines, trace round-tripped through the file format",
		len(arq.Protocols()))
	r.check("Gilbert-Elliott channel is non-analytic (P_F renders '-')", okAnalytic,
		"modelProb yields NaN, not a silent 0")
	r.Notes = append(r.Notes,
		"record: live ge channel -> Recorder -> 4 streams (ab/i ab/c ba/i ba/c); replay: same streams as the only error process")
	return r
}

// experiment is one row of the evaluation's table. Title is the one-line
// description lamstables -list prints; a Result carries its own, longer one.
type experiment struct {
	ID, Title string
	Run       func() *Result
}

// experiments is the one ordered table of the evaluation: All runs it,
// ByID and Titles look it up.
var experiments = []experiment{
	{"E1", "mean transmissions per I-frame (s̄), NAK-only vs pos-ack", E1MeanPeriods},
	{"E2", "low-traffic delivery time D_low(N)", E2LowTrafficDelay},
	{"E3", "holding time H_frame and transparent buffer size B_LAMS", E3HoldingAndBuffer},
	{"E4", "throughput efficiency η vs channel traffic N", E4ThroughputVsTraffic},
	{"E5", "throughput efficiency η vs BER (FEC-derived P_F, P_C)", E5ThroughputVsBER},
	{"E6", "throughput efficiency η vs link distance", E6ThroughputVsDistance},
	{"E7", "burst errors vs C_depth·W_cp", E7BurstResilience},
	{"E8", "link-failure detection latency vs C_depth", E8FailureDetection},
	{"E9", "Stop-Go flow control under receiver overload", E9FlowControl},
	{"E10", "bounded numbering size", E10NumberingSize},
	{"E11", "simulation-vs-analysis validation grid", E11Validation},
	{"E12", "HDLC D_retrn variant ablation (paper typo)", E12VariantAblation},
	{"E13", "stutter (SR+ST) idle-time ablation", E13StutterAblation},
	{"E14", "hybrid ARQ/FEC code-rate trade-off", E14HybridFECTradeoff},
	{"E15", "cost of the in-sequence constraint (GBN vs SR vs LAMS)", E15InSequenceCost},
	{"E16", "delay vs throughput trade-off under rising load", E16DelayThroughput},
	{"E17", "checkpoint interval W_cp ablation", E17CheckpointIntervalAblation},
	{"E18", "multi-hop relay over every registered engine", E18MultiHopRelay},
	{"E19", "constellation-scale sharded simulation (64→1,024 satellites)", E19ConstellationScale},
	{"E20", "state-corruption convergence sweep (scramble/ghost/reorder)", E20CorruptionConvergence},
	{"E21", "trace-driven channel record/replay over every registered engine", E21TraceReplay},
}

// All runs every experiment and returns the results in table order. The
// experiments start together, each on its own goroutine holding no slot of
// the run budget (a body only builds configs and renders tables); the
// simulated runs they start are the pool items of engine.go, so the points
// of all of them drain through Workers() slots and one experiment's
// straggler is overlapped by the others' work. Every table is a pure
// function of its configs, so the output does not depend on the overlap.
// A panic in an experiment is re-raised here, naming it, once all have
// returned.
func All() []*Result { return runAll(experiments) }

func runAll(table []experiment) []*Result {
	out := make([]*Result, len(table))
	var (
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	for i, e := range table {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, fmt.Sprintf("bench: experiment %s: %v", e.ID, r))
				}
			}()
			out[i] = e.Run()
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	return out
}

// Titles returns each experiment's {ID, title} in the order All runs them.
func Titles() [][2]string {
	rows := make([][2]string, len(experiments))
	for i, e := range experiments {
		rows[i] = [2]string{e.ID, e.Title}
	}
	return rows
}

// ByID returns the experiment runner with the given ID, or nil.
func ByID(id string) func() *Result {
	for _, e := range experiments {
		if e.ID == id {
			return e.Run
		}
	}
	return nil
}
