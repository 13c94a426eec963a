package bench

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRunPerfectChannel(t *testing.T) {
	c := Base()
	c.N = 200
	res := Run(c)
	if res.Lost != 0 {
		t.Fatalf("lost %d on perfect channel", res.Lost)
	}
	if res.Duplicates != 0 {
		t.Fatalf("%d duplicates", res.Duplicates)
	}
	if res.Retransmissions != 0 {
		t.Fatal("retransmissions on perfect channel")
	}
	if res.Efficiency <= 0 || res.Efficiency > 1 {
		t.Fatalf("efficiency = %v", res.Efficiency)
	}
	if res.TransPerFrame != 1 {
		t.Fatalf("s̄ = %v, want 1", res.TransPerFrame)
	}
}

func TestRunHDLCAndGBN(t *testing.T) {
	for _, proto := range []Protocol{SRHDLC, GBNHDLC} {
		c := withErrors(Base(), 0.05, 0.01)
		c.Protocol = proto
		c.N = 200
		res := Run(c)
		if res.Lost != 0 {
			t.Fatalf("%v lost %d", proto, res.Lost)
		}
		if res.TransPerFrame < 1 {
			t.Fatalf("%v s̄ = %v", proto, res.TransPerFrame)
		}
	}
	if LAMS.String() == "" || SRHDLC.String() == "" || GBNHDLC.String() == "" || Protocol("bogus").String() == "" {
		t.Fatal("protocol names")
	}
}

func TestRunDeterministic(t *testing.T) {
	c := withErrors(Base(), 0.1, 0.02)
	c.N = 300
	a := Run(c)
	b := Run(c)
	if a.Retransmissions != b.Retransmissions || a.Elapsed != b.Elapsed {
		t.Fatalf("nondeterministic run: %+v vs %+v", a, b)
	}
}

// TestSpecsMatchInstanceGoldens pins the channel seam's replacement of
// RunConfig.IModel/CModel: the goldens are sha256(%+v of the RunResult) from
// the last commit that had the instance fields, Base() with one instance
// shared by both directions — channel.FixedProb{0.05}/{0.0125};
// &channel.BSC{BER: 3e-5} uncoded for I-frames, repetition-3 for control;
// &channel.BurstTrain{Period: 250ms, BurstLen: 15ms, Offset: 40ms, BaseBER:
// 1e-7} for both — and the same channels named by spec must reproduce every
// field, metrics snapshot included.
func TestSpecsMatchInstanceGoldens(t *testing.T) {
	specs := map[string][2]string{
		"fixed": {"fixed:p=0.05", "fixed:p=0.0125"},
		"bsc":   {"bsc:ber=3e-05,fec=none", "bsc:ber=3e-05,fec=rep3"},
		"burst": {"burst:period=250ms,len=15ms,offset=40ms,ber=1e-7", "burst:period=250ms,len=15ms,offset=40ms,ber=1e-7"},
	}
	for _, g := range []struct {
		kind string
		seed uint64
		want string
	}{
		{"fixed", 1, "4b720ad9bf9ce91fd10749f6e02041a030a8f03087b55efa6ba8b452cdebe23d"},
		{"fixed", 2, "c5f264cf4eadff30b9674a029e4ca8d6fbdbd5f3b65b2561037aa6d6c0e2e400"},
		{"fixed", 3, "1c075e42fea570284c35f769cb4cbbb992841e33887e3264ed9fbe92f1d73f68"},
		{"bsc", 1, "1b384d61e9b94e5523a9cfc2067e9401b21730a4c4fd2c1fddadc1dc37a8c3e9"},
		{"bsc", 2, "9c66c5eae1a515c2f0437c4f053fe11eec34aefef80ce092bdc28178ce26bf5b"},
		{"bsc", 3, "b8757956c23b3ef301b91436edfa3478ed5482f5f0a3b80d4baa6c9f426bad54"},
		{"burst", 1, "42a019152d5cb7bec49b03e7920f36c2a7d276fc542ab2e8c2f94c4a175d1119"},
		{"burst", 2, "5e83f460757dd167f13d9785d91bc3359492d1aeea12ed79771515b84845b760"},
		{"burst", 3, "c08b28c0d5e2159fa131d9c8bbc27cbee91d7da154b8c99db2c2f22e45d5aa02"},
	} {
		c := Base()
		c.Seed = g.seed
		c.IModelSpec, c.CModelSpec = specs[g.kind][0], specs[g.kind][1]
		res := Run(c)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))); got != g.want {
			t.Errorf("%s seed %d: RunResult digest %s, instance golden %s (delivered %d, retx %d, elapsed %v)",
				g.kind, g.seed, got, g.want, res.Delivered, res.Retransmissions, res.Elapsed)
		}
	}
}

func TestAnalyticalMapping(t *testing.T) {
	c := withErrors(Base(), 0.1, 0.02)
	p := c.Analytical()
	if p.PF != 0.1 || p.PC != 0.02 {
		t.Fatal("error probabilities not mapped")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("mapped params invalid: %v", err)
	}
	// Models without a closed-form per-frame probability map to NaN (the
	// analytic columns render "-"), never to a silent 0.
	c.IModelSpec = "bsc:ber=1e-6"
	if !math.IsNaN(c.Analytical().PF) {
		t.Fatal("BSC should map to NaN, not a fixed P_F")
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{ID: "EX", Title: "demo"}
	r.check("always", true, "fine")
	r.check("never", false, "broken")
	out := r.Render()
	for _, want := range []string{"EX", "demo", "PASS", "FAIL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if r.Passed() {
		t.Fatal("Passed with a failing check")
	}
}

func TestByID(t *testing.T) {
	if ByID("E1") == nil || ByID("E12") == nil {
		t.Fatal("known experiment missing")
	}
	if ByID("E99") != nil {
		t.Fatal("unknown experiment resolved")
	}
}

func TestHelpers(t *testing.T) {
	if fmtDur(2*sim.Second) != "2s" {
		t.Fatalf("fmtDur s: %q", fmtDur(2*sim.Second))
	}
	if fmtDur(3*sim.Millisecond) != "3ms" {
		t.Fatalf("fmtDur ms: %q", fmtDur(3*sim.Millisecond))
	}
	if fmtDur(5*sim.Microsecond) != "5us" {
		t.Fatalf("fmtDur us: %q", fmtDur(5*sim.Microsecond))
	}
	if fmtRatio(1, 0) != "inf" {
		t.Fatal("fmtRatio zero")
	}
	if fmtRatio(3, 2) != "1.50x" {
		t.Fatalf("fmtRatio: %q", fmtRatio(3, 2))
	}
	if !near(100, 101, 0.02) || near(100, 150, 0.02) || !near(0, 0, 0.1) {
		t.Fatal("near")
	}
}

// TestExperimentsPass runs the full experiment suite and requires every
// shape check to pass — the repository-level statement that the paper's
// claims reproduce. This is the long tail of the test suite (~seconds).
func TestExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	for _, res := range All() {
		res := res
		t.Run(res.ID, func(t *testing.T) {
			for _, c := range res.Checks {
				if !c.Pass {
					t.Errorf("%s check %q failed: %s\n%s", res.ID, c.Name, c.Detail, res.Table.String())
				}
			}
		})
	}
}
