// Package analysis implements the closed-form performance model of the
// paper's Section 4: mean retransmission periods, transmission and
// retransmission period lengths, low- and high-traffic total delivery
// times, sender holding time, transparent buffer sizes, and throughput
// efficiency, for both LAMS-DLC and SR-HDLC.
//
// Each function's doc comment names the equation it reproduces. All
// computation is in float64 seconds; adapters convert to sim.Duration.
//
// One discrepancy in the paper is handled explicitly: the printed
// D_retrn^HDLC swaps the coefficients of α and (2·t_proc + t_c) relative to
// the derivation two lines above it (the resolve delay d_resol = R +
// 2t_proc + t_c occurs with probability (1−P_F)(1−P_C), the timeout delay
// d_retrn = t_out = R + α with the complement). HDLCVariant selects either
// the paper-as-printed form or the re-derived form; experiment E12 shows
// the paper's conclusions are insensitive to the choice.
package analysis

import (
	"fmt"
	"math"

	"repro/internal/fec"
	"repro/internal/sim"
)

// Params carries the symbols of Section 4.
type Params struct {
	// PF and PC are the I-frame and control-frame error probabilities.
	PF, PC float64
	// R is the mean round-trip time in seconds.
	R float64
	// Icp is the checkpoint interval W_cp (= I_cp) in seconds.
	Icp float64
	// Cdepth is the cumulation depth C_depth.
	Cdepth int
	// W is the SR-HDLC window size.
	W int
	// Tf and Tc are the I-frame and control-frame transmission times in
	// seconds.
	Tf, Tc float64
	// Tproc is the per-frame processing time in seconds.
	Tproc float64
	// Alpha is the HDLC timeout slack α = t_out − R in seconds.
	Alpha float64
}

// Validate reports the first nonsensical parameter. Every test is written
// so that NaN fails it.
func (p Params) Validate() error {
	switch {
	case !(p.PF >= 0 && p.PF < 1):
		return fmt.Errorf("analysis: PF %v outside [0,1)", p.PF)
	case !(p.PC >= 0 && p.PC < 1):
		return fmt.Errorf("analysis: PC %v outside [0,1)", p.PC)
	case !(p.R >= 0 && p.Icp > 0 && p.Tf > 0 && p.Tc >= 0 && p.Tproc >= 0 && p.Alpha >= 0):
		return fmt.Errorf("analysis: negative or zero timing parameter")
	case p.Cdepth < 1:
		return fmt.Errorf("analysis: Cdepth %d < 1", p.Cdepth)
	case p.W < 1:
		return fmt.Errorf("analysis: W %d < 1", p.W)
	}
	return nil
}

// HDLCVariant selects the D_retrn^HDLC form.
type HDLCVariant int

// Variants (see the package comment).
const (
	// PaperPrinted reproduces the formula exactly as printed in §4.
	PaperPrinted HDLCVariant = iota
	// Rederived composes d_resol and d_retrn with the probabilities the
	// paper's own derivation assigns them.
	Rederived
)

// String names the variant.
func (v HDLCVariant) String() string {
	if v == PaperPrinted {
		return "paper-printed"
	}
	return "re-derived"
}

// --- Retransmission probabilities and mean period counts -------------------

// PRLAMS is P_R^LAMS = P_F: a NAK-based scheme retransmits only when the
// I-frame itself was in error.
func (p Params) PRLAMS() float64 { return p.PF }

// PRHDLC is P_R^HDLC = P_F + P_C − P_F·P_C: positive-ack schemes also
// retransmit when the acknowledgement is lost.
func (p Params) PRHDLC() float64 { return p.PF + p.PC - p.PF*p.PC }

// SBarLAMS is s̄_LAMS = 1/(1−P_F), the mean number of periods to deliver an
// I-frame.
func (p Params) SBarLAMS() float64 { return 1 / (1 - p.PRLAMS()) }

// SBarHDLC is s̄_HDLC = 1/(1−(P_F+P_C−P_F·P_C)).
func (p Params) SBarHDLC() float64 { return 1 / (1 - p.PRHDLC()) }

// NBarCP is n̄_cp = 1/(1−P_C), the mean number of checkpoint commands needed
// to acknowledge an I-frame reliably.
func (p Params) NBarCP() float64 { return 1 / (1 - p.PC) }

// --- LAMS-DLC period lengths (§4) ------------------------------------------

// cpDelay is the checkpoint-related delay term (n̄_cp − ½)·I_cp that appears
// in every LAMS period: half an interval of expected wait to the next
// checkpoint plus (n̄_cp − 1) intervals for possibly lost checkpoints.
func (p Params) cpDelay() float64 { return (p.NBarCP() - 0.5) * p.Icp }

// DTransLAMS is D_trans^LAMS(N) = N·t_f + t_c + t_proc + R + (n̄_cp−½)·I_cp.
func (p Params) DTransLAMS(n int) float64 {
	return float64(n)*p.Tf + p.Tc + p.Tproc + p.R + p.cpDelay()
}

// DRetrnLAMS is D_retrn^LAMS = t_f + t_c + t_proc + R + (n̄_cp−½)·I_cp.
func (p Params) DRetrnLAMS() float64 { return p.DTransLAMS(1) }

// DLowLAMS is the mean total time for safe delivery of N I-frames in low
// traffic: D_trans^LAMS(N) + (s̄−1)·D_retrn^LAMS.
func (p Params) DLowLAMS(n int) float64 {
	return p.DTransLAMS(n) + (p.SBarLAMS()-1)*p.DRetrnLAMS()
}

// --- SR-HDLC period lengths (§4) -------------------------------------------

// DTransHDLC is D_trans^HDLC(W) = W·t_f + (1−P_C)(R+2t_proc+t_c) + P_C(R+α).
func (p Params) DTransHDLC(w int) float64 {
	return float64(w)*p.Tf +
		(1-p.PC)*(p.R+2*p.Tproc+p.Tc) +
		p.PC*(p.R+p.Alpha)
}

// DRetrnHDLC is the mean retransmission-period length.
//
// PaperPrinted: t_f + R + α(1−P_F−P_C+P_F·P_C) + (P_F+P_C−P_F·P_C)(2t_proc+t_c)
// Rederived:    t_f + R + α(P_F+P_C−P_F·P_C) + (1−P_F)(1−P_C)(2t_proc+t_c)
func (p Params) DRetrnHDLC(v HDLCVariant) float64 {
	success := (1 - p.PF) * (1 - p.PC) // this period resolves
	fail := 1 - success
	base := p.Tf + p.R
	if v == PaperPrinted {
		return base + p.Alpha*success + fail*(2*p.Tproc+p.Tc)
	}
	return base + p.Alpha*fail + success*(2*p.Tproc+p.Tc)
}

// DLowHDLC is D_low^HDLC(W) = D_trans^HDLC(W) + (s̄_HDLC−1)·D_retrn^HDLC.
func (p Params) DLowHDLC(w int, v HDLCVariant) float64 {
	return p.DTransHDLC(w) + (p.SBarHDLC()-1)*p.DRetrnHDLC(v)
}

// --- Holding time and transparent buffer size (§4) --------------------------

// HFrameLAMS is the mean sending-buffer holding time of an I-frame:
// H = s̄_LAMS · (R + t_f + t_c + t_proc + (n̄_cp−½)·I_cp).
func (p Params) HFrameLAMS() float64 {
	return p.SBarLAMS() * (p.R + p.Tf + p.Tc + p.Tproc + p.cpDelay())
}

// BLAMS is the transparent buffer size of LAMS-DLC in frames:
// B = H_frame/t_f + t_proc/t_f (sending buffer inflow during one holding
// time, plus the transparent receive buffer).
func (p Params) BLAMS() float64 {
	return p.HFrameLAMS()/p.Tf + p.Tproc/p.Tf
}

// BHDLC reports the SR-HDLC buffer for continuous operation: §4 proves
// there is no transparent sending-buffer size (the backlog grows without
// bound), so the function returns +Inf.
func (p Params) BHDLC() float64 { return math.Inf(1) }

// --- High-traffic totals (§4) -----------------------------------------------

// HoldingFrames is h = H_frame^LAMS / t_f, the holding time expressed in
// frame times — the subperiod capacity of the N_total recursion.
func (p Params) HoldingFrames() float64 { return p.HFrameLAMS() / p.Tf }

// NTotalLAMS evaluates the paper's subperiod recursion for the total number
// of transmissions (new + retransmitted) needed to move N new frames in
// high traffic. Each subperiod carries h frame slots; retransmissions of
// generation j occupy N_j·P_R^(i−j) slots of subperiod i; new admissions
// fill the rest. The printed closing equation is typographically garbled;
// this evaluation follows the construction, and in the P_R→0 limit returns
// exactly N, while for P_R>0 it approaches N·s̄ (the tail is flushed after
// admissions end). It also returns the number of subperiods used.
func (p Params) NTotalLAMS(n int) (total float64, subperiods int) {
	return nTotal(n, p.HoldingFrames(), p.PRLAMS())
}

// NTotalHDLCWindow evaluates the same recursion for one HDLC window: the
// total transmissions to resolve W frames with P_R^HDLC.
func (p Params) NTotalHDLCWindow() (total float64, subperiods int) {
	return nTotal(p.W, float64(p.W), p.PRHDLC())
}

func nTotal(n int, h, pr float64) (float64, int) {
	if n <= 0 {
		return 0, 0
	}
	if h < 1 {
		h = 1
	}
	remaining := float64(n)
	var gens []float64 // N_j, new frames admitted in generation j
	var total float64
	periods := 0
	for remaining > 0 || pendingRetx(gens, pr, periods) > 1e-9 {
		load := 0.0
		for j, nj := range gens {
			load += nj * math.Pow(pr, float64(periods-j))
		}
		slots := h - load
		if slots < 0 {
			slots = 0
		}
		admit := math.Min(slots, remaining)
		gens = append(gens, admit)
		remaining -= admit
		total += load + admit
		periods++
		if periods > 10_000_000 {
			break // defensive: pr pathologically close to 1
		}
	}
	return total, periods
}

func pendingRetx(gens []float64, pr float64, period int) float64 {
	if pr <= 0 {
		return 0
	}
	load := 0.0
	for j, nj := range gens {
		// Geometric tail of retransmissions still owed by generation j.
		steps := float64(period - j)
		load += nj * math.Pow(pr, steps) / (1 - pr)
	}
	return load
}

// DHighLAMS is the high-traffic total time for N frames:
// D_low^LAMS evaluated at the inflated transmission count N_total (§4).
func (p Params) DHighLAMS(n int) float64 {
	total, _ := p.NTotalLAMS(n)
	return p.DLowLAMS(int(math.Round(total)))
}

// DHighHDLC is m·D_low^HDLC(N_win) + D_low^HDLC(r_w) with m = ⌊N/W⌋,
// r_w = N mod W, and N_win the inflated per-window transmission count.
func (p Params) DHighHDLC(n int, v HDLCVariant) float64 {
	m := n / p.W
	rw := n % p.W
	nwin, _ := p.NTotalHDLCWindow()
	d := float64(m) * p.DLowHDLC(int(math.Round(nwin)), v)
	if rw > 0 {
		d += p.DLowHDLC(rw, v)
	}
	return d
}

// --- Throughput efficiency (§4 final equations) -----------------------------

// EtaLAMS is the high-traffic throughput efficiency of LAMS-DLC with the
// transparent buffer size: useful frame time over total time,
// N·t_f / D_high^LAMS(N) (dimensionless; 1.0 = the wire never idles or
// repeats).
func (p Params) EtaLAMS(n int) float64 {
	return float64(n) * p.Tf / p.DHighLAMS(n)
}

// EtaHDLC is the corresponding SR-HDLC efficiency N·t_f / D_high^HDLC(N).
func (p Params) EtaHDLC(n int, v HDLCVariant) float64 {
	return float64(n) * p.Tf / p.DHighHDLC(n, v)
}

// --- Inconsistency gap and numbering (§2.3, §3.3) ---------------------------

// InconsistencyGapLAMS is the bound on LAMS-DLC's protocol-state
// inconsistency window: the expected normal response time plus
// C_depth·I_cp.
func (p Params) InconsistencyGapLAMS() float64 {
	return p.R + p.Tc + p.Tproc + float64(p.Cdepth)*p.Icp
}

// ResolvingPeriod is R + ½·I_cp + C_depth·I_cp, the bound on a frame's
// unresolved lifetime (§3.3) and therefore on H_frame for numbering.
func (p Params) ResolvingPeriod() float64 {
	return p.R + 0.5*p.Icp + float64(p.Cdepth)*p.Icp
}

// NumberingSizeLAMS is the bound on simultaneously live sequence numbers:
// resolving period divided by the mean frame time.
func (p Params) NumberingSizeLAMS() float64 {
	return p.ResolvingPeriod() / p.Tf
}

// LinkFrameLength is §2.3's "maximum number of in-transit frames at a
// time": (D_link · T_data) / (V · L_frame), with distance in metres, rate
// in bits/s, and frame length in bits. GBN discards this many good frames
// per error in the worst case, which is the paper's argument against it on
// long fat links.
func LinkFrameLength(distanceM, rateBps float64, frameBits int) float64 {
	if frameBits <= 0 {
		return 0
	}
	const c = 2.99792458e8
	return distanceM * rateBps / (c * float64(frameBits))
}

// --- Parameter construction helpers -----------------------------------------

// Scenario describes a physical link; FromScenario converts it to analysis
// parameters using the FEC schemes of the link model (assumption 4).
type Scenario struct {
	// RateBps is the wire rate.
	RateBps float64
	// BER is the post-interleaving channel bit error rate.
	BER float64
	// FrameBytes and ControlBytes are wire sizes of I- and C-frames.
	FrameBytes, ControlBytes int
	// OneWay is the one-way propagation delay.
	OneWay sim.Duration
	// Icp, Cdepth, W, Tproc, Alpha mirror Params.
	Icp    sim.Duration
	Cdepth int
	W      int
	Tproc  sim.Duration
	Alpha  sim.Duration
	// IFEC and CFEC are the codec strengths; zero values mean
	// fec.Hamming74 for I-frames and fec.Repetition3 for control frames.
	IFEC, CFEC fec.Scheme
}

// FromScenario derives Params: P_F and P_C from the BER through the two FEC
// schemes, t_f and t_c from the rate.
func FromScenario(s Scenario) Params {
	ifec := s.IFEC
	if ifec.N == 0 {
		ifec = fec.Hamming74
	}
	cfec := s.CFEC
	if cfec.N == 0 {
		cfec = fec.Repetition3
	}
	return Params{
		PF:     ifec.FrameErrorProb(s.BER, s.FrameBytes*8),
		PC:     cfec.FrameErrorProb(s.BER, s.ControlBytes*8),
		R:      2 * s.OneWay.Seconds(),
		Icp:    s.Icp.Seconds(),
		Cdepth: s.Cdepth,
		W:      s.W,
		Tf:     float64(s.FrameBytes*8) / s.RateBps,
		Tc:     float64(s.ControlBytes*8) / s.RateBps,
		Tproc:  s.Tproc.Seconds(),
		Alpha:  s.Alpha.Seconds(),
	}
}

// Dur converts a seconds figure from this package to a sim.Duration.
func Dur(seconds float64) sim.Duration {
	return sim.Duration(seconds * float64(sim.Second))
}
