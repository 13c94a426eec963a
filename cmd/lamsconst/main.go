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
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is lamsconst with its arguments and output streams; it returns the exit
// status. Every error shard.Run reports is a configuration the flags
// described, so it exits 2 like any other rejected input.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lamsconst", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sats     = fs.Int("sats", 64, "square Walker grid size (perfect square); overridden by -planes/-perplane")
		planes   = fs.Int("planes", 0, "orbital planes (with -perplane; overrides -sats)")
		perplane = fs.Int("perplane", 0, "satellites per plane")
		phasing  = fs.Int("phasing", 1, "Walker phasing factor F")
		altKm    = fs.Float64("alt", 780, "altitude, km")
		incl     = fs.Float64("incl", 86.4, "inclination, degrees")
		polar    = fs.Float64("polar", 60, "cross-plane links unusable above this |latitude| in degrees (0 disables)")
		retarget = fs.Duration("retarget", 200*time.Millisecond, "pointing re-acquisition time after a link becomes usable")

		proto     = fs.String("proto", "lams", "protocol: "+strings.Join(arq.Protocols(), ", "))
		shards    = fs.Int("shards", 1, "parallel shards (report is identical at every value)")
		seed      = fs.Uint64("seed", 1, "seed")
		flows     = fs.Int("flows", 0, "flow count (0 = sats/4)")
		datagrams = fs.Int("datagrams", 50, "datagrams per flow")
		payload   = fs.Int("payload", 256, "payload bytes")
		interval  = fs.Duration("interval", 2*time.Millisecond, "offer interval per flow")
		rate      = fs.Float64("rate", 300e6, "crosslink rate, bits/s")
		imodel    = fs.String("imodel", "", "per-link I-frame error model spec: "+channel.SpecGrammar())
		cmodel    = fs.String("cmodel", "", "per-link control-frame error model spec (same grammar)")
		horizon   = fs.Duration("horizon", 30*time.Second, "virtual-time cap")
		full      = fs.Bool("to-horizon", false, "run the full horizon instead of stopping at completion")
		sweep     = fs.String("sweep", "", "comma-separated grid sizes to sweep (overrides -sats)")
		rounds    = fs.Bool("rounds", false, "also print where the host time went: per-shard busy, barrier wait, mailbox volume, empty rounds")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	sizes := []int{*sats}
	if *sweep != "" {
		sizes = sizes[:0]
		for _, f := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintf(stderr, "lamsconst: bad -sweep entry %q: %v\n", f, err)
				return 2
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
				fmt.Fprintf(stderr, "lamsconst: %d is not a perfect square; use -planes/-perplane for rectangular grids\n", n)
				return 2
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
			fmt.Fprintf(stderr, "lamsconst: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "# %d satellites, %d shards, proto=%s, wall=%v (%.0f events/s)\n",
			rep.Sats, rep.Shards, *proto, time.Since(t0).Round(time.Millisecond),
			float64(rep.Events)/time.Since(t0).Seconds())
		fmt.Fprint(stdout, rep.Render())
		if *rounds {
			fmt.Fprint(stdout, rep.Host.Render())
		}
	}
	return 0
}
