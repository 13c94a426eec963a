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
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/arq"
	"repro/internal/bench"
	"repro/internal/channel"
	"repro/internal/orbit"
)

func main() {
	var (
		// The scenario flags give the base point; the swept parameter
		// overrides its own flag at each value.
		scenario = bench.BindScenarioFlags(flag.CommandLine, 2*time.Minute)
		param    = flag.String("param", "ber", "swept parameter: ber | pf | km | n | icp | cdepth | w | alpha | payload")
		values   = flag.String("values", "1e-6,1e-5,1e-4", "comma-separated sweep values")
		protos   = flag.String("protos", "lams,srhdlc", "comma-separated protocols: "+strings.Join(arq.Protocols(), ", "))
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0),
			"simulation worker goroutines (output is identical at any count)")
		withMetrics = flag.Bool("metrics", false,
			"append a metrics_json column with each run's full counter snapshot")
	)
	flag.Parse()
	bench.SetWorkers(*workers)

	base, err := scenario.RunConfig()
	if err != nil {
		fatal("%v", err)
	}

	var protoList []bench.Protocol
	for _, p := range strings.Split(*protos, ",") {
		reg, err := arq.ParseProtocol(p)
		if err != nil {
			fatal("%v", err)
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
		if err != nil {
			fatal("bad value %q: %v", vs, err)
		}
		c := base
		switch *param {
		case "ber":
			c.IModelSpec, c.CModelSpec = channel.LegacySpecs(v, -1, -1)
		case "pf":
			c.IModelSpec, c.CModelSpec = channel.LegacySpecs(0, v, max(scenario.PC, v/4))
		case "km":
			c.OneWay = orbit.PropagationDelay(v * 1e3)
			c.Alpha = c.OneWay
		case "n":
			c.N = int(v)
		case "icp":
			c.Icp = time.Duration(v * float64(time.Millisecond))
		case "cdepth":
			c.Cdepth = int(v)
		case "w":
			c.W = int(v)
		case "alpha":
			c.Alpha = time.Duration(v * float64(time.Millisecond))
		case "payload":
			c.PayloadBytes = int(v)
		default:
			fatal("unknown parameter %q", *param)
		}
		for _, proto := range protoList {
			c.Protocol = proto
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
	fmt.Println(header)
	for i, pt := range points {
		res := results[i]
		fmt.Printf("%s,%s,%s,%d,%d,%d,%.6f,%.5f,%.4f,%d,%.6f,%.6f,%.1f,%d,%d",
			*param, pt.vs, pt.cfg.Protocol,
			res.Delivered, res.Lost, res.Duplicates,
			res.Elapsed.Seconds(), res.Efficiency, res.TransPerFrame,
			res.Retransmissions, res.MeanHolding.Seconds(), res.MeanDelay.Seconds(),
			res.SendBufMean, res.Recoveries, res.Failures)
		if *withMetrics {
			fmt.Printf(",%s", csvQuote(snapshotJSON(res)))
		}
		fmt.Println()
	}
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

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lamsweep: "+format+"\n", args...)
	os.Exit(2)
}
