// Command lamsim runs one protocol scenario on the simulated laser
// crosslink and prints the measurements: the quick way to poke at the
// design space outside the fixed experiment grid.
//
// Examples:
//
//	lamsim -proto lams -n 5000 -km 8000 -ber 1e-6
//	lamsim -proto srhdlc -n 5000 -km 8000 -ber 1e-6 -w 128
//	lamsim -proto lams -pf 0.2 -pc 0.05 -icp 5ms -cdepth 5
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/arq"
	"repro/internal/bench"
	"repro/internal/channel"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// chainTaps fans one pipe direction's events out to every non-nil tap.
func chainTaps(taps ...channel.Tap) channel.Tap {
	var set []channel.Tap
	for _, t := range taps {
		if t != nil {
			set = append(set, t)
		}
	}
	switch len(set) {
	case 0:
		return nil
	case 1:
		return set[0]
	}
	return func(now sim.Time, event string, f *frame.Frame) {
		for _, t := range set {
			t(now, event, f)
		}
	}
}

func main() {
	var (
		scenario = bench.BindScenarioFlags(flag.CommandLine, 10*time.Minute)
		proto    = flag.String("proto", "lams", "protocol: "+strings.Join(arq.Protocols(), " | "))
		record   = flag.String("record", "", "write the run's per-frame channel decisions to this trace file (replay with -imodel trace:file=...)")
		tproc    = flag.Duration("tproc", 10*time.Microsecond, "per-frame processing time")
		traceN   = flag.Int("trace", 0, "dump the last N link events after the run")

		traceOut    = flag.String("trace-out", "", "stream the full link-event trace to this file as JSONL")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address; the process stays up after the run until interrupted")
		faultSpec   = flag.String("faults", "", `fault schedule, e.g. "outage@2s+100ms; storm@4s+200ms:period=2ms,naks=4" (see internal/faults)`)
		invariants  = flag.Bool("invariants", false, "attach the §3.2 invariant checker (its applicable subset for non-checkpointing protocols); violations print and fail the run")
	)
	flag.Parse()

	reg, err := arq.ParseProtocol(*proto)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamsim: %v\n", err)
		os.Exit(2)
	}
	c, err := scenario.RunConfig()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamsim: %v\n", err)
		os.Exit(2)
	}
	c.Protocol = bench.Protocol(reg.Name)
	c.Tproc = *tproc
	c.CheckInvariants = *invariants
	if *faultSpec != "" {
		spec, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lamsim: %v\n", err)
			os.Exit(2)
		}
		c.Faults = spec
	}
	frameBits := (c.PayloadBytes + 21) * 8
	var recorded *channel.TraceSet
	if *record != "" {
		recorded = channel.NewTraceSet()
		c.RecordChannels = recorded
	}

	var rec *trace.Recorder
	if *traceN > 0 {
		rec = trace.NewRecorder(*traceN)
	}
	var jsonl *trace.JSONL
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lamsim: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		jsonl = trace.NewJSONL(f)
	}
	if rec != nil || jsonl != nil {
		c.TapAB = chainTaps(rec.ChannelTap("A->B"), jsonl.ChannelTap("A->B"))
		c.TapBA = chainTaps(rec.ChannelTap("B->A"), jsonl.ChannelTap("B->A"))
	}

	var msrv *live.MetricsServer
	if *metricsAddr != "" {
		c.Metrics = metrics.New()
		var err error
		msrv, err = live.ServeMetrics(*metricsAddr, c.Metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lamsim: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("metrics         http://%s/metrics (pprof under /debug/pprof/)\n", msrv.Addr)
	}

	res := bench.Run(c)

	fmt.Printf("protocol        %v\n", res.Protocol)
	fmt.Printf("link            %s, %.0f km (R=%v), frame %dB (t_f=%v)\n",
		sim.FormatRate(c.RateBps), scenario.Km, 2*c.OneWay,
		c.PayloadBytes+21, sim.Duration(float64(frameBits)/c.RateBps*float64(sim.Second)))
	fmt.Printf("delivered       %d/%d (lost=%d dup=%d)\n", res.Delivered, c.N, res.Lost, res.Duplicates)
	fmt.Printf("elapsed         %v\n", res.Elapsed)
	fmt.Printf("efficiency      %.4f of channel capacity\n", res.Efficiency)
	fmt.Printf("transmissions   %d first + %d retransmitted (s̄=%.3f)\n",
		res.FirstTx, res.Retransmissions, res.TransPerFrame)
	fmt.Printf("control frames  %d\n", res.ControlSent)
	fmt.Printf("holding time    mean %v, max %v\n", res.MeanHolding, res.MaxHolding)
	fmt.Printf("delivery delay  mean %v\n", res.MeanDelay)
	fmt.Printf("send buffer     mean %.1f, max %.0f frames (backlog at end: %d)\n",
		res.SendBufMean, res.SendBufMax, res.FinalBacklog)
	if res.Protocol == bench.LAMS {
		fmt.Printf("recv buffer     max %.0f frames (dropped %d)\n", res.RecvBufMax, res.RecvDropped)
		fmt.Printf("flow control    %d rate changes, final rate %.3f\n", res.RateChanges, res.FinalRate)
		fmt.Printf("numbering span  %d live sequence numbers max\n", res.MaxLiveSpan)
		fmt.Printf("failures        %d (recoveries %d)\n", res.Failures, res.Recoveries)
	}
	if c.Faults != nil {
		fmt.Printf("faults          %s\n", c.Faults)
	}
	if *invariants {
		if len(res.Violations) == 0 {
			fmt.Printf("invariants      ok (§3.2 contract held)\n")
		} else {
			fmt.Printf("invariants      %d violations:\n", len(res.Violations))
			for _, v := range res.Violations {
				fmt.Printf("  %s\n", v)
			}
		}
	}
	if rec != nil {
		fmt.Printf("\n--- last %d link events ---\n%s", len(rec.Events()), rec.Dump())
	}
	if recorded != nil {
		if err := recorded.WriteFile(*record); err != nil {
			fmt.Fprintf(os.Stderr, "lamsim: channel trace: %v\n", err)
			os.Exit(2)
		}
		frames := 0
		for _, name := range recorded.Names() {
			frames += len(recorded.Get(name).Recs)
		}
		fmt.Printf("channel trace   %d frames (%d streams) -> %s\n",
			frames, len(recorded.Names()), *record)
	}
	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "lamsim: trace export: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("trace           %d events -> %s\n", jsonl.Count(), *traceOut)
	}
	if msrv != nil {
		fmt.Printf("metrics         final counters stay scrapeable; interrupt (ctrl-c) to exit\n")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		msrv.Close()
	}
	if len(res.Violations) > 0 {
		os.Exit(1)
	}
	// A scripted failure-window outage legitimately strands datagrams; only
	// treat loss as a run failure when the protocol never declared failure.
	if res.Lost > 0 && res.Failures == 0 {
		os.Exit(1)
	}
}
