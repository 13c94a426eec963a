package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// baseParams mirrors the paper's environment: 4000 km link, 300 Mbps,
// 1 KiB frames, BER-driven error probabilities.
func baseParams() Params {
	return Params{
		PF:     0.05,
		PC:     0.005,
		R:      0.027, // ~4000 km round trip
		Icp:    0.010,
		Cdepth: 3,
		W:      64,
		Tf:     8192 / 300e6,
		Tc:     256 / 300e6,
		Tproc:  50e-6,
		Alpha:  0.013,
	}
}

func TestValidate(t *testing.T) {
	if err := baseParams().Validate(); err != nil {
		t.Fatalf("base params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.PF = -0.1 },
		func(p *Params) { p.PF = 1 },
		func(p *Params) { p.PC = 1.5 },
		func(p *Params) { p.Tf = 0 },
		func(p *Params) { p.Icp = 0 },
		func(p *Params) { p.Cdepth = 0 },
		func(p *Params) { p.W = 0 },
		func(p *Params) { p.Alpha = -1 },
		func(p *Params) { p.PF = math.NaN() },
		func(p *Params) { p.Tf = math.NaN() },
	}
	for i, mut := range bad {
		p := baseParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRetransmissionProbabilities(t *testing.T) {
	p := baseParams()
	if p.PRLAMS() != p.PF {
		t.Fatal("P_R^LAMS must equal P_F")
	}
	want := p.PF + p.PC - p.PF*p.PC
	if math.Abs(p.PRHDLC()-want) > 1e-15 {
		t.Fatalf("P_R^HDLC = %v, want %v", p.PRHDLC(), want)
	}
	// The central claim of §2: pos-ack ARQ retransmits strictly more.
	if !(p.PRHDLC() > p.PRLAMS()) {
		t.Fatal("P_R^HDLC must exceed P_R^LAMS for PC > 0")
	}
	if !(p.SBarHDLC() > p.SBarLAMS()) {
		t.Fatal("s̄_HDLC must exceed s̄_LAMS")
	}
}

func TestSBarLimits(t *testing.T) {
	p := baseParams()
	p.PF, p.PC = 0, 0
	if p.SBarLAMS() != 1 || p.SBarHDLC() != 1 || p.NBarCP() != 1 {
		t.Fatal("error-free means exactly one period")
	}
	p.PF = 0.5
	if got := p.SBarLAMS(); got != 2 {
		t.Fatalf("s̄ at PF=0.5 = %v, want 2", got)
	}
}

func TestDTransLAMSComposition(t *testing.T) {
	p := baseParams()
	// D_trans(N) - D_trans(0) must be exactly N*t_f.
	d0 := p.DTransLAMS(0)
	d10 := p.DTransLAMS(10)
	if math.Abs(d10-d0-10*p.Tf) > 1e-15 {
		t.Fatal("transmission time term wrong")
	}
	// At PC=0, the cp delay is exactly Icp/2.
	q := p
	q.PC = 0
	want := q.Tc + q.Tproc + q.R + 0.5*q.Icp
	if math.Abs(q.DTransLAMS(0)-want) > 1e-15 {
		t.Fatalf("D_trans(0) = %v, want %v", q.DTransLAMS(0), want)
	}
	if q.DRetrnLAMS() != q.DTransLAMS(1) {
		t.Fatal("D_retrn must equal D_trans(1)")
	}
}

func TestDLowLAMSErrorFree(t *testing.T) {
	p := baseParams()
	p.PF, p.PC = 0, 0
	// s̄=1: no retransmission term at all.
	if math.Abs(p.DLowLAMS(10)-p.DTransLAMS(10)) > 1e-15 {
		t.Fatal("error-free D_low must equal D_trans")
	}
}

func TestDRetrnHDLCVariants(t *testing.T) {
	p := baseParams()
	printed := p.DRetrnHDLC(PaperPrinted)
	rederived := p.DRetrnHDLC(Rederived)
	// Both share t_f + R; they differ in how α and (2t_proc+t_c) are
	// weighted. With small error rates the printed form pays ~α·1, the
	// re-derived form ~α·P_R.
	if printed <= rederived {
		t.Fatalf("at small P the printed form should be larger: %v vs %v", printed, rederived)
	}
	// At zero errors: printed = tf+R+α, re-derived = tf+R+2tproc+tc.
	q := p
	q.PF, q.PC = 0, 0
	if math.Abs(q.DRetrnHDLC(PaperPrinted)-(q.Tf+q.R+q.Alpha)) > 1e-15 {
		t.Fatal("printed variant at P=0")
	}
	if math.Abs(q.DRetrnHDLC(Rederived)-(q.Tf+q.R+2*q.Tproc+q.Tc)) > 1e-15 {
		t.Fatal("re-derived variant at P=0")
	}
	if PaperPrinted.String() == Rederived.String() {
		t.Fatal("variant names")
	}
}

func TestHoldingTimeAndBufferScale(t *testing.T) {
	p := baseParams()
	h := p.HFrameLAMS()
	// Holding at least a round trip, and divergent as PF -> 1.
	if h < p.R {
		t.Fatalf("holding %v below round trip", h)
	}
	q := p
	q.PF = 0.9
	if q.HFrameLAMS() < 5*h {
		t.Fatal("holding must blow up with PF")
	}
	// B_LAMS is H/t_f + t_proc/t_f.
	want := h/p.Tf + p.Tproc/p.Tf
	if math.Abs(p.BLAMS()-want) > 1e-9 {
		t.Fatalf("B_LAMS = %v, want %v", p.BLAMS(), want)
	}
}

func TestNTotalErrorFree(t *testing.T) {
	p := baseParams()
	p.PF, p.PC = 0, 0
	total, periods := p.NTotalLAMS(1000)
	if total != 1000 {
		t.Fatalf("error-free N_total = %v, want 1000", total)
	}
	h := p.HoldingFrames()
	wantPeriods := int(math.Ceil(1000 / h))
	if periods != wantPeriods {
		t.Fatalf("periods = %d, want %d", periods, wantPeriods)
	}
}

func TestNTotalApproachesNSBar(t *testing.T) {
	p := baseParams()
	for _, pf := range []float64{0.01, 0.1, 0.3} {
		q := p
		q.PF = pf
		const n = 5000
		total, _ := q.NTotalLAMS(n)
		want := float64(n) * q.SBarLAMS()
		if math.Abs(total-want)/want > 0.01 {
			t.Fatalf("PF=%v: N_total = %v, want ~%v", pf, total, want)
		}
	}
}

func TestNTotalZeroAndWindow(t *testing.T) {
	p := baseParams()
	if total, periods := p.NTotalLAMS(0); total != 0 || periods != 0 {
		t.Fatal("N_total(0)")
	}
	total, _ := p.NTotalHDLCWindow()
	want := float64(p.W) * p.SBarHDLC()
	if math.Abs(total-want)/want > 0.02 {
		t.Fatalf("window N_total = %v, want ~%v", total, want)
	}
}

func TestEfficiencyShapeClaims(t *testing.T) {
	p := baseParams()
	// Claim 1 (§4 conclusion): in high traffic LAMS-DLC beats SR-HDLC.
	const n = 10000
	etaL := p.EtaLAMS(n)
	etaH := p.EtaHDLC(n, PaperPrinted)
	if !(etaL > etaH) {
		t.Fatalf("η_LAMS %v must exceed η_HDLC %v", etaL, etaH)
	}
	// ...under either variant.
	if !(etaL > p.EtaHDLC(n, Rederived)) {
		t.Fatal("claim must hold for the re-derived variant too")
	}
	// Claim 2: η_LAMS increases with N (amortizing s̄R + δ).
	prev := 0.0
	for _, ni := range []int{100, 1000, 10000, 100000} {
		eta := p.EtaLAMS(ni)
		if eta < prev {
			t.Fatalf("η_LAMS not increasing at N=%d", ni)
		}
		prev = eta
	}
	// Sanity: efficiencies are in (0, 1].
	if etaL <= 0 || etaL > 1 || etaH <= 0 || etaH > 1 {
		t.Fatalf("efficiencies out of range: %v, %v", etaL, etaH)
	}
}

func TestEfficiencyDegradesWithBER(t *testing.T) {
	prev := 1.0
	for _, pf := range []float64{0.001, 0.01, 0.05, 0.2, 0.5} {
		p := baseParams()
		p.PF = pf
		eta := p.EtaLAMS(10000)
		if eta >= prev {
			t.Fatalf("η did not degrade at PF=%v", pf)
		}
		prev = eta
	}
}

func TestEfficiencyGapGrowsWithAlpha(t *testing.T) {
	// The paper: "it is likely that α >> n̄_cp in a highly changing
	// network", driving the HDLC disadvantage.
	p := baseParams()
	gapSmall := p.EtaLAMS(10000) - p.EtaHDLC(10000, PaperPrinted)
	q := p
	q.Alpha = 0.2 // 200 ms of timeout slack
	gapLarge := q.EtaLAMS(10000) - q.EtaHDLC(10000, PaperPrinted)
	if !(gapLarge > gapSmall) {
		t.Fatalf("gap should grow with α: %v vs %v", gapLarge, gapSmall)
	}
}

func TestInconsistencyGapAndNumbering(t *testing.T) {
	p := baseParams()
	rp := p.ResolvingPeriod()
	if math.Abs(rp-(p.R+0.5*p.Icp+3*p.Icp)) > 1e-15 {
		t.Fatalf("resolving period = %v", rp)
	}
	if p.NumberingSizeLAMS() != rp/p.Tf {
		t.Fatal("numbering size")
	}
}

func TestFromScenario(t *testing.T) {
	s := Scenario{
		RateBps:      300e6,
		BER:          1e-6,
		FrameBytes:   1024,
		ControlBytes: 32,
		OneWay:       13 * sim.Millisecond,
		Icp:          10 * sim.Millisecond,
		Cdepth:       3,
		W:            64,
		Tproc:        50 * sim.Microsecond,
		Alpha:        13 * sim.Millisecond,
	}
	p := FromScenario(s)
	if err := p.Validate(); err != nil {
		t.Fatalf("scenario params invalid: %v", err)
	}
	if math.Abs(p.Tf-1024*8/300e6) > 1e-18 {
		t.Fatalf("t_f = %v", p.Tf)
	}
	if math.Abs(p.R-0.026) > 1e-12 {
		t.Fatalf("R = %v", p.R)
	}
	// The stronger control FEC must yield P_C << P_F (assumption 4).
	if !(p.PC < p.PF/10) {
		t.Fatalf("P_C %v not much below P_F %v", p.PC, p.PF)
	}
	if Dur(0.5) != 500*sim.Millisecond {
		t.Fatal("Dur conversion")
	}
}

func TestNTotalProperty(t *testing.T) {
	// N_total >= N always, and monotone in N.
	f := func(nRaw uint16, pfRaw uint8) bool {
		n := int(nRaw%2000) + 1
		p := baseParams()
		p.PF = float64(pfRaw%60) / 100
		total, _ := p.NTotalLAMS(n)
		if total < float64(n)-1e-9 {
			return false
		}
		total2, _ := p.NTotalLAMS(n + 100)
		return total2 >= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLowTrafficComparisonMatchesPaperDiscussion(t *testing.T) {
	// §4: "the total period ... are nearly equivalent if s̄_LAMS equals
	// s̄_HDLC and α is small". Force that regime and check.
	p := baseParams()
	p.PC = 0 // s̄_HDLC == s̄_LAMS
	p.Alpha = 0
	p.Icp = 0.002 // the residual gap is the (n̄cp−½)·I_cp checkpoint wait
	n := 50
	dl := p.DLowLAMS(n)
	dh := p.DLowHDLC(n, PaperPrinted)
	if math.Abs(dl-dh)/dh > 0.05 {
		t.Fatalf("low-traffic totals should nearly match: %v vs %v", dl, dh)
	}
	// And with α large, HDLC is strictly worse even at low traffic.
	q := baseParams()
	q.Alpha = 0.2
	if !(q.DLowHDLC(n, PaperPrinted) > q.DLowLAMS(n)) {
		t.Fatal("large α should hurt HDLC at low traffic")
	}
}
