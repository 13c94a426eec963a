package lams

import (
	"math"
	"testing"
	"time"

	"repro/internal/orbit"
)

func TestFacadeEndToEnd(t *testing.T) {
	s := NewSimulation(42)
	lp := LinkParams{RateBps: 300e6, DistanceKm: 4000, BER: 1e-6}
	link := s.NewLink(lp)
	got := map[uint64]int{}
	pair := s.NewLAMSPair(link, DefaultsFor(lp), func(_ Time, dg Datagram, _ uint32) {
		got[dg.ID]++
	}, nil)
	const n = 100
	for i := 0; i < n; i++ {
		if !pair.Sender.Enqueue(Datagram{ID: uint64(i), Payload: make([]byte, 1024)}) {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	s.RunFor(10 * time.Second)
	for i := 0; i < n; i++ {
		if got[uint64(i)] == 0 {
			t.Fatalf("datagram %d lost", i)
		}
	}
	if s.Now() <= 0 {
		t.Fatal("clock did not advance")
	}
}

func TestFacadeHDLC(t *testing.T) {
	s := NewSimulation(7)
	lp := LinkParams{RateBps: 100e6, DistanceKm: 2000, BER: 1e-6}
	link := s.NewLink(lp)
	var order []uint64
	pair := s.NewHDLCPair(link, HDLCDefaultsFor(lp), func(_ Time, dg Datagram, _ uint32) {
		order = append(order, dg.ID)
	}, nil)
	for i := 0; i < 50; i++ {
		pair.Sender.Enqueue(Datagram{ID: uint64(i), Payload: make([]byte, 512)})
	}
	s.RunFor(10 * time.Second)
	if len(order) != 50 {
		t.Fatalf("delivered %d", len(order))
	}
	for i, id := range order {
		if id != uint64(i) {
			t.Fatal("HDLC must deliver in order")
		}
	}
}

func TestLinkParamsVariants(t *testing.T) {
	// Constant distance.
	lp := LinkParams{RateBps: 1e9, DistanceKm: 2998}
	if d := lp.OneWay(); d < 9*time.Millisecond || d > 11*time.Millisecond {
		t.Fatalf("one way %v for ~3000 km", d)
	}
	// Orbit-driven.
	ol := orbit.InPlanePair(1000e3, 30)
	lp2 := LinkParams{RateBps: 1e9, Orbit: &ol}
	if lp2.OneWay() <= 0 {
		t.Fatal("orbit delay")
	}
}

// TestLinkParamsOneSpecPath pins the facade's single way of naming a
// channel: the BER shorthand expands to registry specs, and explicit specs
// pass through.
func TestLinkParamsOneSpecPath(t *testing.T) {
	if i, c := (LinkParams{}).specs(); i != "" || c != "" {
		t.Fatalf("zero BER should be the perfect channel, got %q / %q", i, c)
	}
	if i, c := (LinkParams{BER: 1e-6}).specs(); i != "bsc:ber=1e-06,fec=hamming74" || c != "bsc:ber=1e-06,fec=rep3" {
		t.Fatalf("BER shorthand expanded to %q / %q", i, c)
	}
	if i, c := (LinkParams{BER: 1e-6, IModelSpec: "fixed:p=0.05"}).specs(); i != "fixed:p=0.05" || c != "" {
		t.Fatalf("explicit specs must win, got %q / %q", i, c)
	}
}

// TestAnalysisForReadsSpecs pins the bug the single path fixes: a link
// described by spec used to get the closed forms of a perfect channel,
// because AnalysisFor derived P_F/P_C from BER alone.
func TestAnalysisForReadsSpecs(t *testing.T) {
	lp := LinkParams{RateBps: 300e6, DistanceKm: 4000, IModelSpec: "fixed:p=0.05", CModelSpec: "fixed:p=0.0125"}
	p := AnalysisFor(lp, DefaultsFor(lp), 1024, 64, 13*time.Millisecond)
	if p.PF != 0.05 || p.PC != 0.0125 {
		t.Fatalf("P_F/P_C = %v/%v, want the specs' 0.05/0.0125", p.PF, p.PC)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	lp.CModelSpec = "" // one direction left perfect
	if p := AnalysisFor(lp, DefaultsFor(lp), 1024, 64, 13*time.Millisecond); p.PF != 0.05 || p.PC != 0 {
		t.Fatalf("P_F/P_C = %v/%v, want 0.05/0", p.PF, p.PC)
	}
	lp.IModelSpec = "ge:gber=1e-7,bber=2e-3,mgood=40ms,mbad=4ms"
	if p := AnalysisFor(lp, DefaultsFor(lp), 1024, 64, 13*time.Millisecond); !math.IsNaN(p.PF) {
		t.Fatalf("Gilbert-Elliott P_F = %v, want NaN (no closed form)", p.PF)
	}
}

func TestAnalysisForValid(t *testing.T) {
	lp := LinkParams{RateBps: 300e6, DistanceKm: 4000, BER: 1e-6}
	cfg := DefaultsFor(lp)
	p := AnalysisFor(lp, cfg, 1024, 64, 13*time.Millisecond)
	if err := p.Validate(); err != nil {
		t.Fatalf("analysis params invalid: %v", err)
	}
	if !(p.PC < p.PF) {
		t.Fatal("stronger control FEC not reflected")
	}
}

func TestSimulationDeterminism(t *testing.T) {
	run := func() uint64 {
		s := NewSimulation(99)
		lp := LinkParams{RateBps: 300e6, DistanceKm: 4000, BER: 1e-4}
		link := s.NewLink(lp)
		var count uint64
		pair := s.NewLAMSPair(link, DefaultsFor(lp), func(_ Time, dg Datagram, _ uint32) {
			count++
		}, nil)
		for i := 0; i < 100; i++ {
			pair.Sender.Enqueue(Datagram{ID: uint64(i), Payload: make([]byte, 1024)})
		}
		s.RunFor(5 * time.Second)
		return count + pair.Metrics().Retransmissions.Value()<<32
	}
	if run() != run() {
		t.Fatal("same seed produced different runs")
	}
}
