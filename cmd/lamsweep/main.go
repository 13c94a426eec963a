// Command lamsweep runs a one-dimensional parameter sweep and emits CSV,
// the plot-ready counterpart of lamstables' fixed experiment grid.
//
// Examples:
//
//	lamsweep -param ber -values 1e-7,1e-6,1e-5,1e-4 -protos lams,srhdlc
//	lamsweep -param km -values 2000,4000,6000,8000,10000
//	lamsweep -param pf -values 0.01,0.05,0.1,0.2 -n 4000 > sweep.csv
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/arq"
	"repro/internal/bench"
	"repro/internal/channel"
	"repro/internal/orbit"
	"repro/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is lamsweep with its arguments and output streams; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lamsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The scenario flags give the base point; the swept parameter overrides
	// its own flag at each value.
	scenario := bench.BindScenarioFlags(fs, 2*time.Minute)
	params := sweepParams(scenario)
	var (
		param   = fs.String("param", "ber", "swept parameter: "+strings.Join(params.Names(), " | "))
		values  = fs.String("values", "1e-6,1e-5,1e-4", "comma-separated sweep values")
		protos  = fs.String("protos", "lams,srhdlc", "comma-separated protocols: "+strings.Join(arq.Protocols(), ", "))
		workers = fs.Int("workers", runtime.GOMAXPROCS(0),
			"simulation worker goroutines (output is identical at any count)")
		withMetrics = fs.Bool("metrics", false,
			"append a metrics_json column with each run's full counter snapshot")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(format string, v ...any) int {
		fmt.Fprintf(stderr, "lamsweep: "+format+"\n", v...)
		return 2
	}
	bench.SetWorkers(*workers)

	base, err := scenario.RunConfig()
	if err != nil {
		return fail("%v", err)
	}

	set, err := params.Lookup(*param)
	if err != nil {
		return fail("%v", err)
	}

	var protoList []bench.Protocol
	for _, p := range strings.Split(*protos, ",") {
		reg, err := arq.ParseProtocol(p)
		if err != nil {
			return fail("%v", err)
		}
		protoList = append(protoList, bench.Protocol(reg.Name))
	}

	// Every (value, protocol) point is an independent run: build the whole
	// grid up front, fan it across the worker pool, and print in grid order
	// (the CSV is byte-identical at any -workers).
	type point struct {
		vs  string
		cfg bench.RunConfig
	}
	var points []point
	for _, vs := range strings.Split(*values, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(vs), 64)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = strconv.ErrRange
		}
		if err != nil {
			return fail("bad value %q: %v", vs, err)
		}
		c := base
		set(&c, v)
		for _, proto := range protoList {
			c.Protocol = proto
			// A swept value can make a run nothing accepts (-param pf -values
			// 2, -param w -values 0): an error here, not a worker's panic.
			if err := c.Validate(); err != nil {
				return fail("value %q: %v", vs, err)
			}
			points = append(points, point{vs: vs, cfg: c})
		}
	}

	cfgs := make([]bench.RunConfig, len(points))
	for i, pt := range points {
		cfgs[i] = pt.cfg
	}
	results := bench.RunMany(cfgs)

	header := "param,value,protocol,delivered,lost,duplicates,elapsed_s,efficiency,s_bar,retx,mean_holding_s,mean_delay_s,sendbuf_mean,recoveries,failures"
	if *withMetrics {
		header += ",metrics_json"
	}
	fmt.Fprintln(stdout, header)
	for i, pt := range points {
		res := results[i]
		fmt.Fprintf(stdout, "%s,%s,%s,%d,%d,%d,%.6f,%.5f,%.4f,%d,%.6f,%.6f,%.1f,%d,%d",
			*param, pt.vs, pt.cfg.Protocol,
			res.Delivered, res.Lost, res.Duplicates,
			res.Elapsed.Seconds(), res.Efficiency, res.TransPerFrame,
			res.Retransmissions, res.MeanHolding.Seconds(), res.MeanDelay.Seconds(),
			res.SendBufMean, res.Recoveries, res.Failures)
		if *withMetrics {
			fmt.Fprintf(stdout, ",%s", csvQuote(snapshotJSON(res)))
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// sweepParams is the table of sweepable parameters: how one value of each
// lands in the run configuration (durations are given in milliseconds). pf
// reads the base point's -pc when a value is applied, after the flags parsed.
func sweepParams(base *bench.ScenarioFlags) *spec.Table[func(*bench.RunConfig, float64)] {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	t := spec.NewTable[func(*bench.RunConfig, float64)]("parameter")
	t.Add("ber", nil, func(c *bench.RunConfig, v float64) {
		c.IModelSpec, c.CModelSpec = channel.LegacySpecs(v, -1, -1)
	})
	t.Add("pf", nil, func(c *bench.RunConfig, v float64) {
		c.IModelSpec, c.CModelSpec = channel.LegacySpecs(0, v, max(base.PC, v/4))
	})
	t.Add("km", nil, func(c *bench.RunConfig, v float64) {
		c.OneWay = orbit.PropagationDelay(v * 1e3)
		c.Alpha = c.OneWay
	})
	t.Add("n", nil, func(c *bench.RunConfig, v float64) { c.N = int(v) })
	t.Add("icp", nil, func(c *bench.RunConfig, v float64) { c.Icp = ms(v) })
	t.Add("cdepth", nil, func(c *bench.RunConfig, v float64) { c.Cdepth = int(v) })
	t.Add("w", nil, func(c *bench.RunConfig, v float64) { c.W = int(v) })
	t.Add("alpha", nil, func(c *bench.RunConfig, v float64) { c.Alpha = ms(v) })
	t.Add("payload", nil, func(c *bench.RunConfig, v float64) { c.PayloadBytes = int(v) })
	return t
}

// snapshotJSON renders the run's counter set as a compact JSON object
// (counters only: gauges and histograms are per-instant/per-distribution
// detail that belongs on the /metrics endpoint, not in a sweep row).
func snapshotJSON(res bench.RunResult) string {
	b, err := json.Marshal(res.Snapshot.Counters)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// csvQuote wraps s in double quotes with RFC 4180 escaping.
func csvQuote(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
