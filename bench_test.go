package lams

// One testing.B benchmark per experiment of the paper's evaluation (see
// DESIGN.md §5 and EXPERIMENTS.md). Each iteration regenerates the full
// table/figure — workload, sweep, both protocols, analysis overlay — and
// asserts its shape checks, so `go test -bench=.` both re-measures the
// paper and re-verifies its claims. Micro-benchmarks for the hot paths live
// in their packages (frame, crc, channel, sim).

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/sim"
)

func benchExperiment(b *testing.B, fn func() *bench.Result) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := fn()
		if !res.Passed() {
			for _, c := range res.Checks {
				if !c.Pass {
					b.Fatalf("%s shape check %q failed: %s", res.ID, c.Name, c.Detail)
				}
			}
		}
	}
}

// TestE4AllocBudget holds the E4 sweep (twelve runs, up to 8,000 datagrams
// each) to an allocation budget. AllocsPerRun evaluates it once before
// counting and counts at GOMAXPROCS 1, so the runs hand one run memory along
// and what is left is building each run's world: 2,149–2,190 objects (229,483
// before per-run recycling, 16,467 with bench.Run's Recycle call removed). The
// budget is the benchmark-gate figure at eight workers (2,490), where eight
// run memories warm up, plus a tenth.
func TestE4AllocBudget(t *testing.T) {
	const budget = 2800
	allocs := testing.AllocsPerRun(1, func() { bench.E4ThroughputVsTraffic() })
	if allocs > budget {
		t.Fatalf("E4 allocates %.0f objects per sweep, budget %d", allocs, budget)
	}
	t.Logf("E4 allocates %.0f objects per sweep (budget %d)", allocs, budget)
}

// BenchmarkE1MeanPeriods regenerates the s̄ table (E1).
func BenchmarkE1MeanPeriods(b *testing.B) { benchExperiment(b, bench.E1MeanPeriods) }

// BenchmarkE2LowTrafficDelay regenerates D_low(N) (E2).
func BenchmarkE2LowTrafficDelay(b *testing.B) { benchExperiment(b, bench.E2LowTrafficDelay) }

// BenchmarkE3HoldingTime regenerates H_frame and B_LAMS (E3).
func BenchmarkE3HoldingTime(b *testing.B) { benchExperiment(b, bench.E3HoldingAndBuffer) }

// BenchmarkE4ThroughputVsTraffic regenerates η vs N (E4).
func BenchmarkE4ThroughputVsTraffic(b *testing.B) { benchExperiment(b, bench.E4ThroughputVsTraffic) }

// BenchmarkE5ThroughputVsBER regenerates η vs BER (E5).
func BenchmarkE5ThroughputVsBER(b *testing.B) { benchExperiment(b, bench.E5ThroughputVsBER) }

// BenchmarkE6ThroughputVsDistance regenerates η vs link distance (E6).
func BenchmarkE6ThroughputVsDistance(b *testing.B) { benchExperiment(b, bench.E6ThroughputVsDistance) }

// BenchmarkE7BurstResilience regenerates the burst-vs-C_depth·W_cp study (E7).
func BenchmarkE7BurstResilience(b *testing.B) { benchExperiment(b, bench.E7BurstResilience) }

// BenchmarkE8FailureDetection regenerates failure-detection latency (E8).
func BenchmarkE8FailureDetection(b *testing.B) { benchExperiment(b, bench.E8FailureDetection) }

// BenchmarkE9FlowControl regenerates the Stop-Go study (E9).
func BenchmarkE9FlowControl(b *testing.B) { benchExperiment(b, bench.E9FlowControl) }

// BenchmarkE10NumberingSize regenerates the numbering-size bound (E10).
func BenchmarkE10NumberingSize(b *testing.B) { benchExperiment(b, bench.E10NumberingSize) }

// BenchmarkE11Validation regenerates the sim-vs-analysis grid (E11).
func BenchmarkE11Validation(b *testing.B) { benchExperiment(b, bench.E11Validation) }

// BenchmarkE12VariantAblation regenerates the D_retrn variant ablation (E12).
func BenchmarkE12VariantAblation(b *testing.B) { benchExperiment(b, bench.E12VariantAblation) }

// BenchmarkE13StutterAblation regenerates the SR+ST ablation (E13).
func BenchmarkE13StutterAblation(b *testing.B) { benchExperiment(b, bench.E13StutterAblation) }

// BenchmarkE14HybridFEC regenerates the hybrid ARQ/FEC trade-off (E14).
func BenchmarkE14HybridFEC(b *testing.B) { benchExperiment(b, bench.E14HybridFECTradeoff) }

// BenchmarkE15InSequenceCost regenerates the in-sequence ladder (E15).
func BenchmarkE15InSequenceCost(b *testing.B) { benchExperiment(b, bench.E15InSequenceCost) }

// BenchmarkE16DelayThroughput regenerates the delay/throughput trade (E16).
func BenchmarkE16DelayThroughput(b *testing.B) { benchExperiment(b, bench.E16DelayThroughput) }

// BenchmarkE17CheckpointInterval regenerates the W_cp ablation (E17).
func BenchmarkE17CheckpointInterval(b *testing.B) {
	benchExperiment(b, bench.E17CheckpointIntervalAblation)
}

// BenchmarkAllExperiments regenerates the whole evaluation, bench.All()
// (E1–E21 overlapped on the one run budget): the suite's wall time and
// allocations, what `lamstables` costs and what lamsbench's `tables` times.
func BenchmarkAllExperiments(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, res := range bench.All() {
			if !res.Passed() {
				b.Fatalf("%s has a failing shape check", res.ID)
			}
		}
	}
}

// BenchmarkLAMSTransfer2000 measures raw simulator throughput moving 2,000
// datagrams across the canonical link: the end-to-end hot path.
func BenchmarkLAMSTransfer2000(b *testing.B) {
	c := bench.Base()
	c.IModelSpec, c.CModelSpec = "fixed:p=0.05", "fixed:p=0.0125"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Seed = uint64(i) + 1
		res := bench.Run(c)
		if res.Lost != 0 {
			b.Fatalf("lost %d", res.Lost)
		}
	}
}

// BenchmarkSRHDLCTransfer2000 is the baseline counterpart.
func BenchmarkSRHDLCTransfer2000(b *testing.B) {
	c := bench.Base()
	c.Protocol = bench.SRHDLC
	c.IModelSpec, c.CModelSpec = "fixed:p=0.05", "fixed:p=0.0125"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Seed = uint64(i) + 1
		res := bench.Run(c)
		if res.Lost != 0 {
			b.Fatalf("lost %d", res.Lost)
		}
	}
}

// BenchmarkFacadeSetup measures world construction through the public API.
func BenchmarkFacadeSetup(b *testing.B) {
	lp := LinkParams{RateBps: 300e6, DistanceKm: 4000, BER: 1e-6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSimulation(uint64(i))
		link := s.NewLink(lp)
		pair := s.NewLAMSPair(link, DefaultsFor(lp), nil, nil)
		_ = pair
		s.RunFor(sim.Millisecond)
	}
}
