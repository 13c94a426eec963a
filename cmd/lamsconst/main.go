// Command lamsconst runs the constellation-scale sharded simulation: a
// Walker-delta constellation with per-crosslink DLC sessions, polar
// handover churn, and end-to-end flows, executed on the conservative
// parallel shard engine. The report is bit-identical at every -shards
// value; the flag only trades wall-clock time on multi-core hosts.
//
// Examples:
//
//	lamsconst -sats 1024 -shards 8
//	lamsconst -planes 6 -perplane 11 -phasing 2 -incl 86.4 -proto srhdlc
//	lamsconst -sweep 64,256,1024 -shards 4
//	lamsconst -sats 1024 -shards 2 -rounds
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/arq"
	"repro/internal/channel"
	_ "repro/internal/engines"
	"repro/internal/orbit"
	"repro/internal/shard"
	"repro/internal/sim"
)

func main() {
	var (
		sats     = flag.Int("sats", 64, "square Walker grid size (perfect square); overridden by -planes/-perplane")
		planes   = flag.Int("planes", 0, "orbital planes (with -perplane; overrides -sats)")
		perplane = flag.Int("perplane", 0, "satellites per plane")
		phasing  = flag.Int("phasing", 1, "Walker phasing factor F")
		altKm    = flag.Float64("alt", 780, "altitude, km")
		incl     = flag.Float64("incl", 86.4, "inclination, degrees")
		polar    = flag.Float64("polar", 60, "cross-plane links unusable above this |latitude| in degrees (0 disables)")
		retarget = flag.Duration("retarget", 200*time.Millisecond, "pointing re-acquisition time after a link becomes usable")

		proto     = flag.String("proto", "lams", "protocol: "+strings.Join(arq.Protocols(), ", "))
		shards    = flag.Int("shards", 1, "parallel shards (report is identical at every value)")
		seed      = flag.Uint64("seed", 1, "seed")
		flows     = flag.Int("flows", 0, "flow count (0 = sats/4)")
		datagrams = flag.Int("datagrams", 50, "datagrams per flow")
		payload   = flag.Int("payload", 256, "payload bytes")
		interval  = flag.Duration("interval", 2*time.Millisecond, "offer interval per flow")
		rate      = flag.Float64("rate", 300e6, "crosslink rate, bits/s")
		imodel    = flag.String("imodel", "", "per-link I-frame error model spec: "+channel.SpecGrammar())
		cmodel    = flag.String("cmodel", "", "per-link control-frame error model spec (same grammar)")
		horizon   = flag.Duration("horizon", 30*time.Second, "virtual-time cap")
		full      = flag.Bool("to-horizon", false, "run the full horizon instead of stopping at completion")
		sweep     = flag.String("sweep", "", "comma-separated grid sizes to sweep (overrides -sats)")
		rounds    = flag.Bool("rounds", false, "also print where the host time went: per-shard busy, barrier wait, mailbox volume, empty rounds")
	)
	flag.Parse()

	sizes := []int{*sats}
	if *sweep != "" {
		sizes = sizes[:0]
		for _, f := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintf(os.Stderr, "lamsconst: bad -sweep entry %q: %v\n", f, err)
				os.Exit(2)
			}
			sizes = append(sizes, n)
		}
	}

	for _, n := range sizes {
		var w orbit.Walker
		if *planes > 0 && *perplane > 0 {
			w = orbit.Walker{Planes: *planes, PerPlane: *perplane, PhasingF: *phasing,
				AltitudeM: *altKm * 1e3, InclinationDeg: *incl}
		} else {
			if p := int(math.Round(math.Sqrt(float64(n)))); p*p != n {
				fmt.Fprintf(os.Stderr, "lamsconst: %d is not a perfect square; use -planes/-perplane for rectangular grids\n", n)
				os.Exit(2)
			}
			w = shard.WalkerGrid(n)
			w.PhasingF = *phasing
			w.AltitudeM = *altKm * 1e3
			w.InclinationDeg = *incl
		}
		cfg := shard.DefaultConfig(w)
		cfg.Proto = *proto
		cfg.Shards = *shards
		cfg.Seed = *seed
		if *flows > 0 {
			cfg.Flows = *flows
		}
		cfg.DatagramsPerFlow = *datagrams
		cfg.PayloadBytes = *payload
		cfg.OfferInterval = sim.Duration(*interval)
		cfg.RateBps = *rate
		if *imodel != "" {
			cfg.IModelSpec = *imodel
		}
		if *cmodel != "" {
			cfg.CModelSpec = *cmodel
		}
		cfg.Horizon = sim.Duration(*horizon)
		cfg.RunToHorizon = *full
		cfg.PolarDeg = *polar
		cfg.Retarget = sim.Duration(*retarget)

		t0 := time.Now()
		rep, err := shard.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lamsconst: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# %d satellites, %d shards, proto=%s, wall=%v (%.0f events/s)\n",
			rep.Sats, rep.Shards, *proto, time.Since(t0).Round(time.Millisecond),
			float64(rep.Events)/time.Since(t0).Seconds())
		fmt.Print(rep.Render())
		if *rounds {
			fmt.Print(rep.Host.Render())
		}
	}
}
