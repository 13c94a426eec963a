package shard

import (
	"fmt"
	"runtime"
	"testing"

	_ "repro/internal/engines"
)

// The constellation benchmarks time only the event loop: the scenario is
// rebuilt outside the timer each iteration (a Constellation runs once), so
// ns/op, events/s and allocs/event all describe the run phase the shard
// engine owns. Each size fans out over shard counts 1, 2, 4 and 8; the
// report is bit-identical at every count, so the sub-benchmarks measure
// pure engine overhead/speedup. A speedup needs a core per shard: with
// fewer cores than shards expect near-zero overhead instead, and on a
// two-core host no more than 2× (EXPERIMENTS.md has the recorded numbers).
// At -benchtime 1x the one run is cold; from the second iteration on each
// run starts on the run memory the one before donated.

func benchConstellation(b *testing.B, sats, shards int) {
	cfg := DefaultConfig(WalkerGrid(sats))
	cfg.Shards = shards
	cfg.Seed = 7
	cfg.DatagramsPerFlow = 20
	b.ReportAllocs()
	var events, runAllocs uint64
	var m0, m1 runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		rep := c.Run()
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		runAllocs += m1.Mallocs - m0.Mallocs
		events += rep.Events
		if rep.Delivered != rep.Offered {
			b.Fatalf("delivered %d of %d offered", rep.Delivered, rep.Offered)
		}
		b.StartTimer()
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		b.ReportMetric(float64(runAllocs)/float64(events), "allocs/event")
	}
}

func benchConstellationShards(b *testing.B, sats int) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			benchConstellation(b, sats, k)
		})
	}
}

func BenchmarkConstellation64(b *testing.B)   { benchConstellationShards(b, 64) }
func BenchmarkConstellation256(b *testing.B)  { benchConstellationShards(b, 256) }
func BenchmarkConstellation1024(b *testing.B) { benchConstellationShards(b, 1024) }
