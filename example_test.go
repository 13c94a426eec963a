package lams_test

import (
	"fmt"
	"time"

	lams "repro"
	"repro/internal/analysis"
	"repro/internal/fec"
)

// The one-screen version of the paper: build a laser crosslink, run
// LAMS-DLC over it, and compare with the Section 4 closed forms.
func Example() {
	link := lams.LinkParams{RateBps: 300e6, DistanceKm: 4000, BER: 1e-6}
	simu := lams.NewSimulation(1)
	l := simu.NewLink(link)

	delivered := 0
	pair := simu.NewLAMSPair(l, lams.DefaultsFor(link),
		func(_ lams.Time, dg lams.Datagram, _ uint32) { delivered++ }, nil)

	for i := 0; i < 100; i++ {
		pair.Sender.Enqueue(lams.Datagram{ID: uint64(i), Payload: make([]byte, 1024)})
	}
	simu.RunFor(time.Second)

	fmt.Printf("delivered %d/100, retransmissions %d\n",
		delivered, pair.Metrics().Retransmissions.Value())
	// Output:
	// delivered 100/100, retransmissions 0
}

// Evaluating the paper's closed forms directly: the headline comparison at
// one operating point.
func ExampleAnalysisParams() {
	p := analysis.Params{
		PF: 0.05, PC: 0.0125,
		R: 0.0267, Icp: 0.010, Cdepth: 3, W: 64,
		Tf: 8360 / 300e6, Tc: 160 / 300e6, Tproc: 10e-6,
		Alpha: 0.013,
	}
	fmt.Printf("s_LAMS=%.3f s_HDLC=%.3f\n", p.SBarLAMS(), p.SBarHDLC())
	fmt.Printf("B_LAMS=%.0f frames\n", p.BLAMS())
	fmt.Printf("eta_LAMS(4000)=%.2f eta_HDLC(4000)=%.2f\n",
		p.EtaLAMS(4000), p.EtaHDLC(4000, analysis.PaperPrinted))
	// Output:
	// s_LAMS=1.053 s_HDLC=1.066
	// B_LAMS=1204 frames
	// eta_LAMS(4000)=0.74 eta_HDLC(4000)=0.06
}

// The FEC algebra of the link model (assumption 4): the same BER maps to
// very different residual frame error probabilities for I-frames and
// control frames.
func ExampleAnalysisParams_fec() {
	ber := 1e-4
	pf := fec.Hamming74.FrameErrorProb(ber, 8360)
	pc := fec.Repetition3.FrameErrorProb(ber, 160)
	fmt.Printf("P_F=%.2e P_C=%.2e ratio=%.0fx\n", pf, pc, pf/pc)
	// Output:
	// P_F=4.39e-04 P_C=4.80e-06 ratio=91x
}
