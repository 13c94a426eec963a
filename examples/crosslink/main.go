// Crosslink: the paper's motivating scenario end to end. Two satellites in
// crossing LEO planes acquire line of sight for a few minutes (the short
// link lifetime of §2.1), the laser channel suffers both random errors and
// tracking-loss bursts, and the propagation delay changes as the range
// changes. LAMS-DLC moves as much traffic as possible through the window;
// the run reports geometry, burst behaviour, and protocol statistics.
package main

import (
	"fmt"
	"time"

	lams "repro"
	"repro/internal/orbit"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	// Geometry: 1000 km altitude, 60° inclination, planes 90° apart.
	ol := orbit.CrossPlanePair(1000e3, 60, 90, 0)
	windows := ol.Windows(2*ol.A.Period(), 10*time.Second)
	if len(windows) == 0 {
		fmt.Println("no visibility window in the horizon")
		return
	}
	w := windows[0]
	st := ol.Stats(w, time.Second)
	fmt.Printf("visibility window: %v (link lifetime %v)\n", w, w.Duration().Round(time.Second))
	fmt.Printf("range: %.0f–%.0f km (round trip %v–%v)\n",
		st.MinM/1e3, st.MaxM/1e3,
		2*orbit.PropagationDelay(st.MinM), 2*orbit.PropagationDelay(st.MaxM))
	fmt.Printf("HDLC would need t_out = R + α with α ≥ %v on this pass\n\n", st.TimeoutAlpha())

	// Shift the orbit epoch so simulation time 0 is window start.
	shifted := ol
	shifted.A.PhaseRad += shifted.A.MeanMotion() * w.Start.Seconds()
	shifted.B.PhaseRad += shifted.B.MeanMotion() * w.Start.Seconds()

	// A 1e-6 BER with tracking-loss bursts every 20 s, under the paper's
	// FEC split (Hamming(7,4) on I-frames, repetition-3 on control frames).
	const burst = "burst:period=20s,len=25ms,offset=5s,ber=1e-6,fec="
	link := lams.LinkParams{
		RateBps:    300e6,
		Orbit:      &shifted,
		IModelSpec: burst + "hamming74",
		CModelSpec: burst + "rep3",
	}

	cfg := lams.DefaultsFor(link)
	cfg.CumulationDepth = 4 // C_depth·W_cp = 40ms > burst length: §3.3 condition
	cfg.LinkLifetime = w.Duration()

	simu := lams.NewSimulation(7)
	l := simu.NewLink(link)
	var delivered, bytes int
	pair := simu.NewLAMSPair(l, cfg, func(now lams.Time, dg lams.Datagram, _ uint32) {
		delivered++
		bytes += len(dg.Payload)
	}, func(now lams.Time, reason string) {
		fmt.Printf("!! link failure declared at %v: %s\n", now, reason)
	})

	// Offer traffic at 80% of the wire rate for the whole pass.
	const payload = 1024
	interval := sim.Duration(float64((payload+21)*8) / (0.8 * link.RateBps) * float64(sim.Second))
	gen := workload.NewConstantRate(simu.Scheduler(), pair.Sender.Enqueue, interval, payload, -1)

	// Run the first minute of the pass in 10-second reporting slices (the
	// full multi-minute window behaves identically; see cfg.LinkLifetime
	// for the protocol's own awareness of the remaining pass).
	lifetime := w.Duration()
	horizon := lifetime
	if horizon > time.Minute {
		horizon = time.Minute
	}
	for t := time.Duration(0); t < horizon; t += 10 * time.Second {
		simu.RunFor(10 * time.Second)
		m := pair.Metrics()
		fmt.Printf("t=%-5v delivered=%-7d retx=%-5d enforced-recoveries=%d holding(mean)=%v\n",
			t+10*time.Second, delivered, m.Retransmissions.Value(),
			m.Failures.Value(), m.MeanHoldingTime().Round(time.Millisecond))
	}
	gen.Stop()
	simu.RunFor(5 * time.Second) // drain

	m := pair.Metrics()
	fmt.Printf("\nfirst %v of a %v pass: %d datagrams (%.1f MB)\n",
		horizon, lifetime.Round(time.Second), delivered, float64(bytes)/1e6)
	fmt.Printf("goodput %.1f Mbit/s of %s (efficiency %.3f)\n",
		float64(bytes)*8/horizon.Seconds()/1e6, sim.FormatRate(link.RateBps),
		float64(bytes)*8/(link.RateBps*horizon.Seconds()))
	fmt.Printf("transmissions: %d first, %d retransmitted; %d checkpoints; zero loss: %v\n",
		m.FirstTx.Value(), m.Retransmissions.Value(), m.Checkpoints.Value(),
		uint64(delivered) == m.Delivered.Value())
}
