package bench

import (
	"fmt"

	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
)

// e19Sizes are the Walker grids the scale experiment sweeps; the paper's
// multi-satellite setting (§2) motivates the constellation, the shard
// engine makes the top end tractable.
var e19Sizes = []int{64, 256, 1024}

// E19ConstellationScale runs the standard constellation scenario — Walker
// grids with per-crosslink DLC sessions, polar handover churn, and
// permutation flows — at 64, 256 and 1,024 satellites on the sharded
// conservative engine. The table reports constellation-wide delivery time,
// handover churn and crosslink utilization versus size. Every figure is
// invariant across shard counts (TestAllDeterministicAcrossWorkers renders
// E19 at 1, 2 and 8); the run budget bounds the shards, min(Workers(), 8, n),
// so -workers buys wall-clock time here as it does for every other batch.
func E19ConstellationScale() *Result {
	r := &Result{
		ID:    "E19",
		Title: "constellation-scale sharded simulation (Walker grids, 64→1,024 satellites)",
		Table: stats.NewTable("", "sats", "flows", "delivered", "p50", "p95", "makespan", "handover", "util", "events", "rounds"),
	}
	okAll, completed1024 := true, false
	for _, n := range e19Sizes {
		cfg := shard.DefaultConfig(shard.WalkerGrid(n))
		cfg.Shards = min(Workers(), 8, n)
		cfg.Seed = 7
		cfg.DatagramsPerFlow = 20
		// One pool item per size, sizes in order: a K-shard run holds one
		// slot of the run budget (its shards yield to whatever else shares
		// the process), and only one constellation is live at a time.
		rep := mapIndexed(1, func(int) shard.Report {
			rep, err := shard.Run(cfg)
			if err != nil {
				panic(err)
			}
			return rep
		})[0]
		r.Table.AddRow(fmt.Sprint(rep.Sats), fmt.Sprint(rep.Flows),
			fmt.Sprintf("%d/%d", rep.Delivered, rep.Offered),
			fmtDur(rep.DelayP50), fmtDur(rep.DelayP95),
			fmtDur(sim.Duration(rep.Makespan)), fmt.Sprint(rep.Handover),
			fmt.Sprintf("%.6f", rep.Utilization),
			fmt.Sprint(rep.Events), fmt.Sprint(rep.Rounds))
		if rep.Delivered != rep.Offered || rep.Offered == 0 || rep.Unroutable != 0 {
			okAll = false
		}
		if n == 1024 && rep.Delivered == rep.Offered && rep.Offered > 0 {
			completed1024 = true
		}
	}
	r.check("every flow delivers everything at every size", okAll,
		"delivered == offered with zero unroutable flows at %v satellites", e19Sizes)
	r.check("the 1,024-satellite constellation runs to completion", completed1024,
		"full delivery on the largest grid")
	return r
}
