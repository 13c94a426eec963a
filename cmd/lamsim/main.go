// Command lamsim runs one protocol scenario on the simulated laser
// crosslink and prints the measurements: the quick way to poke at the
// design space outside the fixed experiment grid. Subcommands inspect the
// wire format (frame) and plan crosslink passes (pass).
//
// Examples:
//
//	lamsim -proto lams -n 5000 -km 8000 -ber 1e-6
//	lamsim -proto srhdlc -n 5000 -km 8000 -ber 1e-6 -w 128
//	lamsim -proto lams -pf 0.2 -pc 0.05 -icp 5ms -cdepth 5
//	lamsim frame -samples
//	echo 02000000002a... | lamsim frame
//	lamsim pass -alt 1000 -inc 60 -raansep 90 -hours 4 -rate 300e6
package main

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/arq"
	"repro/internal/bench"
	"repro/internal/channel"
	"repro/internal/faults"
	"repro/internal/fec"
	"repro/internal/frame"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/orbit"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

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

// run is lamsim with its arguments and streams passed in; it returns the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "frame":
			return runFrame(args[1:], stdin, stdout, stderr)
		case "pass":
			return runPass(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("lamsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = bench.BindScenarioFlags(fs, 10*time.Minute)
		proto    = fs.String("proto", "lams", "protocol: "+strings.Join(arq.Protocols(), " | "))
		record   = fs.String("record", "", "write the run's per-frame channel decisions to this trace file (replay with -imodel trace:file=...)")
		tproc    = fs.Duration("tproc", 10*time.Microsecond, "per-frame processing time (LAMS-DLC only)")
		traceN   = fs.Int("trace", 0, "dump the last N link events after the run")

		traceOut    = fs.String("trace-out", "", "stream the full link-event trace to this file as JSONL")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address; the process stays up after the run until interrupted")
		faultSpec   = fs.String("faults", "", `fault schedule, e.g. "outage@2s+100ms; storm@4s+200ms:period=2ms,naks=4" (see internal/faults)`)
		invariants  = fs.Bool("invariants", false, "attach the §3.2 invariant checker (its applicable subset for non-checkpointing protocols); violations print and fail the run")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(format string, v ...any) int {
		fmt.Fprintf(stderr, "lamsim: "+format+"\n", v...)
		return 2
	}

	reg, err := arq.ParseProtocol(*proto)
	if err != nil {
		return fail("%v", err)
	}
	c, err := scenario.RunConfig()
	if err != nil {
		return fail("%v", err)
	}
	c.Protocol = bench.Protocol(reg.Name)
	c.Tproc = *tproc
	c.CheckInvariants = *invariants
	if *faultSpec != "" {
		spec, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			return fail("%v", err)
		}
		c.Faults = spec
	}
	if err := c.Validate(); err != nil {
		return fail("%v", err)
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
			return fail("%v", err)
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
		msrv, err = live.ServeMetrics(*metricsAddr, c.Metrics)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "metrics         http://%s/metrics (pprof under /debug/pprof/)\n", msrv.Addr)
	}

	res := bench.Run(c)

	fmt.Fprintf(stdout, "protocol        %v\n", res.Protocol)
	fmt.Fprintf(stdout, "link            %s, %.0f km (R=%v), frame %dB (t_f=%v)\n",
		sim.FormatRate(c.RateBps), scenario.Km, 2*c.OneWay,
		c.PayloadBytes+21, sim.Duration(float64(frameBits)/c.RateBps*float64(sim.Second)))
	fmt.Fprintf(stdout, "delivered       %d/%d (lost=%d dup=%d)\n", res.Delivered, c.N, res.Lost, res.Duplicates)
	fmt.Fprintf(stdout, "elapsed         %v\n", res.Elapsed)
	fmt.Fprintf(stdout, "efficiency      %.4f of channel capacity\n", res.Efficiency)
	fmt.Fprintf(stdout, "transmissions   %d first + %d retransmitted (s̄=%.3f)\n",
		res.FirstTx, res.Retransmissions, res.TransPerFrame)
	fmt.Fprintf(stdout, "control frames  %d\n", res.ControlSent)
	fmt.Fprintf(stdout, "holding time    mean %v, max %v\n", res.MeanHolding, res.MaxHolding)
	fmt.Fprintf(stdout, "delivery delay  mean %v\n", res.MeanDelay)
	fmt.Fprintf(stdout, "send buffer     mean %.1f, max %.0f frames (backlog at end: %d)\n",
		res.SendBufMean, res.SendBufMax, res.FinalBacklog)
	if res.Protocol == bench.LAMS {
		fmt.Fprintf(stdout, "recv buffer     max %.0f frames (dropped %d)\n", res.RecvBufMax, res.RecvDropped)
		fmt.Fprintf(stdout, "flow control    %d rate changes, final rate %.3f\n", res.RateChanges, res.FinalRate)
		fmt.Fprintf(stdout, "numbering span  %d live sequence numbers max\n", res.MaxLiveSpan)
		fmt.Fprintf(stdout, "failures        %d (recoveries %d)\n", res.Failures, res.Recoveries)
	}
	if c.Faults != nil {
		fmt.Fprintf(stdout, "faults          %s\n", c.Faults)
	}
	if *invariants {
		if len(res.Violations) == 0 {
			fmt.Fprintf(stdout, "invariants      ok (§3.2 contract held)\n")
		} else {
			fmt.Fprintf(stdout, "invariants      %d violations:\n", len(res.Violations))
			for _, v := range res.Violations {
				fmt.Fprintf(stdout, "  %s\n", v)
			}
		}
	}
	if rec != nil {
		fmt.Fprintf(stdout, "\n--- last %d link events ---\n%s", len(rec.Events()), rec.Dump())
	}
	if recorded != nil {
		if err := recorded.WriteFile(*record); err != nil {
			return fail("channel trace: %v", err)
		}
		frames := 0
		for _, name := range recorded.Names() {
			frames += len(recorded.Get(name).Recs)
		}
		fmt.Fprintf(stdout, "channel trace   %d frames (%d streams) -> %s\n",
			frames, len(recorded.Names()), *record)
	}
	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			return fail("trace export: %v", err)
		}
		fmt.Fprintf(stdout, "trace           %d events -> %s\n", jsonl.Count(), *traceOut)
	}
	if msrv != nil {
		fmt.Fprintf(stdout, "metrics         final counters stay scrapeable; interrupt (ctrl-c) to exit\n")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		msrv.Close()
	}
	if len(res.Violations) > 0 {
		return 1
	}
	// A scripted failure-window outage legitimately strands datagrams; only
	// treat loss as a run failure when the protocol never declared failure.
	if res.Lost > 0 && res.Failures == 0 {
		return 1
	}
	return 0
}

// runFrame is `lamsim frame`: it decodes hex-encoded frames from stdin (one
// or more per line; blank lines and # comments skipped) or, with -samples,
// prints an annotated gallery of every frame kind the codec produces. A line
// that does not decode exits 1.
func runFrame(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lamsim frame", flag.ContinueOnError)
	fs.SetOutput(stderr)
	samples := fs.Bool("samples", false, "print sample encodings of every frame kind")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *samples {
		printSamples(stdout, stderr)
		return 0
	}

	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	status := 0
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		raw, err := hex.DecodeString(strings.ReplaceAll(text, " ", ""))
		if err != nil {
			fmt.Fprintf(stderr, "line %d: bad hex: %v\n", line, err)
			status = 1
			continue
		}
		for len(raw) > 0 {
			f, n, err := frame.Decode(raw)
			if err != nil {
				fmt.Fprintf(stderr, "line %d: %v (%d bytes left)\n", line, err, len(raw))
				status = 1
				break
			}
			fmt.Fprintf(stdout, "%4dB  %s\n", n, f)
			raw = raw[n:]
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(stderr, "lamsim frame: %v\n", err)
		status = 1
	}
	return status
}

func printSamples(stdout, stderr io.Writer) {
	gallery := []*frame.Frame{
		frame.NewI(17, 3, []byte("user payload bits")),
		frame.NewCheckpoint(9, 18, nil, false, false),
		frame.NewCheckpoint(10, 18, []uint32{12, 15}, false, false),
		frame.NewCheckpoint(11, 18, []uint32{12, 15}, true, true),
		frame.NewRequestNAK(4),
		{Kind: frame.KindHDLCI, Seq: 5, Ack: 3, Payload: []byte("hdlc"), Final: true},
		{Kind: frame.KindRR, Ack: 6, Final: true},
		{Kind: frame.KindREJ, Ack: 4, Seq: 4},
		{Kind: frame.KindSREJ, Ack: 9, Seq: 6},
	}
	for _, f := range gallery {
		buf, err := f.Encode()
		if err != nil {
			fmt.Fprintf(stderr, "encode %v: %v\n", f, err)
			continue
		}
		fmt.Fprintf(stdout, "%-44s %3dB  %s\n", f.String(), len(buf), hex.EncodeToString(buf))
	}
}

// runPass is `lamsim pass`: it plans crosslink passes from orbital geometry.
// Given two satellites' orbit parameters it prints the visibility windows over
// a horizon, the range statistics of each pass, and the protocol-relevant
// derived numbers — round-trip spread, the HDLC timeout slack α the pass
// would force, and the LAMS-DLC transparent buffer size for a given rate.
func runPass(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lamsim pass", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		altKm   = fs.Float64("alt", 1000, "orbit altitude, km")
		incDeg  = fs.Float64("inc", 60, "inclination, degrees")
		raanSep = fs.Float64("raansep", 90, "RAAN separation between planes, degrees")
		phase   = fs.Float64("phase", 0, "phase offset of satellite B, degrees")
		hours   = fs.Float64("hours", 4, "planning horizon, hours")
		rate    = fs.Float64("rate", 300e6, "link rate for protocol sizing, bits/s")
		ber     = fs.Float64("ber", 1e-6, "channel BER for protocol sizing")
		frameB  = fs.Int("frame", 1024, "I-frame payload bytes for protocol sizing")
		icp     = fs.Duration("icp", 10*time.Millisecond, "checkpoint interval W_cp")
		cdepth  = fs.Int("cdepth", 3, "cumulation depth C_depth")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	link := orbit.CrossPlanePair(*altKm*1e3, *incDeg, *raanSep, *phase)
	horizon := time.Duration(*hours * float64(time.Hour))
	windows := link.Windows(horizon, 10*time.Second)

	fmt.Fprintf(stdout, "constellation: %.0f km altitude, %.0f° inclination, planes %.0f° apart, phase %.0f°\n",
		*altKm, *incDeg, *raanSep, *phase)
	fmt.Fprintf(stdout, "orbital period %v; planning horizon %v\n\n", link.A.Period().Round(time.Second), horizon)

	if len(windows) == 0 {
		fmt.Fprintln(stdout, "no visibility windows in the horizon")
		return 0
	}

	var visible time.Duration
	for i, w := range windows {
		st := link.Stats(w, time.Second)
		visible += w.Duration()
		fmt.Fprintf(stdout, "pass %d: %v\n", i+1, w)
		fmt.Fprintf(stdout, "  range %.0f–%.0f km   round trip %v–%v (midrange %v)\n",
			st.MinM/1e3, st.MaxM/1e3,
			2*orbit.PropagationDelay(st.MinM).Round(time.Microsecond),
			2*orbit.PropagationDelay(st.MaxM).Round(time.Microsecond),
			st.RoundTrip().Round(time.Microsecond))
		fmt.Fprintf(stdout, "  HDLC timeout slack α ≥ %v\n", st.TimeoutAlpha().Round(time.Microsecond))

		p := analysis.FromScenario(analysis.Scenario{
			RateBps:      *rate,
			BER:          *ber,
			FrameBytes:   *frameB + 21,
			ControlBytes: 20,
			OneWay:       orbit.PropagationDelay(st.MidrangeM()),
			Icp:          *icp,
			Cdepth:       *cdepth,
			W:            64,
			Tproc:        10 * time.Microsecond,
			Alpha:        st.TimeoutAlpha(),
		})
		fmt.Fprintf(stdout, "  LAMS-DLC sizing: holding %v, transparent buffer %.0f frames (%.1f MB), numbering ≥ %.0f\n",
			analysis.Dur(p.HFrameLAMS()).Round(time.Microsecond),
			p.BLAMS(), p.BLAMS()*float64(*frameB)/1e6, p.NumberingSizeLAMS())
		capacity := *rate * w.Duration().Seconds() * p.EtaLAMS(1_000_000) / 8 / 1e6
		fmt.Fprintf(stdout, "  pass capacity ≈ %.0f MB at η_LAMS(N→large)=%.2f\n\n",
			capacity, p.EtaLAMS(1_000_000))
	}
	fmt.Fprintf(stdout, "total visibility: %v of %v (%.0f%%); FEC: %s / %s\n",
		visible.Round(time.Second), horizon, 100*visible.Seconds()/horizon.Seconds(),
		fec.Hamming74.Name, fec.Repetition3.Name)
	return 0
}
