// Command lamsbench is the repository's one benchmark. It runs six named
// workloads through the public entry points (bench.Run, bench.All,
// shard.Build/Constellation.Run, live.NewEndpoint), prints every metric by
// name with its unit, and checks that the outputs are correct. A separate
// traced run (-trace 1) attributes host time to layers with timing shims on
// the public seams and by driving single layers alone. README.md explains
// every workload, metric and bound.
//
//	lamsbench -workload link_bulk                 # one timed run
//	lamsbench -workload link_bulk -trace 1        # the per-layer run
//	lamsbench -all -out results.jsonl             # every workload, appended
//	lamsbench -compare old.jsonl new.jsonl        # verdict per metric
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many fresh processes time the workload's set-up; the
// run reports their median.
const setupRuns = 5

// minReps is the fewest repetitions a time-boxed run measures.
const minReps = 3

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	reps      int
	trace     int
	out       string
	spans     string
	setupOnly bool
}

// runRecord is the fixed-schema result of one run, one JSON line in -out.
type runRecord struct {
	Env              envStamp `json:"env"`
	Workload         string   `json:"workload"`
	Seed             uint64   `json:"seed"`
	Trace            int      `json:"trace"`
	Reps             int      `json:"reps"`
	Correct          bool     `json:"correct"`
	OpsAttempted     int      `json:"ops_attempted"`
	OpsFailed        int      `json:"ops_failed"`
	OpsDuplicated    int      `json:"ops_duplicated"`
	Failures         []string `json:"failures"`
	SimDigest        string   `json:"sim_digest"`
	SimDigestChanged bool     `json:"sim_digest_changed"`
	// ProcessPeakRSSMiB is this measuring process's own VmHWM at exit; it
	// grows with tracing buffers and pool misses and is not a metric.
	ProcessPeakRSSMiB float64            `json:"process_peak_rss_mib"`
	Metrics           map[string]summary `json:"metrics"`
}

func main() {
	var o options
	var all, manifest, force bool
	var compare string
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; repetition r uses sim.DeriveSeed(seed, r)")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "host seconds to measure for (repetitions are never cut short)")
	flag.IntVar(&o.reps, "reps", 0, "measure exactly this many repetitions instead of -seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&o.out, "out", "", "append the result as one JSON line to this file")
	flag.StringVar(&o.spans, "spans", "", "traced run: span JSONL path (default .bench_build/spans-<workload>.jsonl)")
	flag.BoolVar(&all, "all", false, "run every workload, each in a fresh process")
	flag.StringVar(&compare, "compare", "", "compare this result file with the one given as argument: -compare old.jsonl new.jsonl")
	flag.BoolVar(&force, "force", false, "-compare: compare results from differing environments anyway")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "set the workload up and exit (what setup_s times)")
	flag.Parse()

	switch {
	case manifest:
		os.Stdout.Write(manifestJSON())
	case compare != "":
		if flag.NArg() != 1 {
			fatal(2, "usage: lamsbench -compare old.jsonl new.jsonl")
		}
		os.Exit(compareFiles(os.Stdout, compare, flag.Arg(0), force))
	case all:
		os.Exit(runAll(o))
	default:
		if o.trace != 0 && o.trace != 1 {
			fatal(2, "-trace takes 0 or 1")
		}
		w, err := newWorkload(o.workload, o.seed, 1)
		if err != nil {
			fatal(2, "%v (have: %s)", err, strings.Join(workloadNames(), ", "))
		}
		if o.setupOnly {
			w.setup()
			w.finish()
			fmt.Println(peakRSSMiB())
			return
		}
		rec, err := run(w, o)
		if err != nil {
			fatal(1, "%v", err)
		}
		if !rec.Correct {
			os.Exit(1)
		}
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lamsbench: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.Name
	}
	return names
}

// runAll runs every workload in a fresh process each, passing the flags on.
func runAll(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(1, "%v", err)
	}
	code := 0
	for _, name := range workloadNames() {
		args := []string{"-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-reps", strconv.Itoa(o.reps),
			"-trace", strconv.Itoa(o.trace), "-out", o.out}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "lamsbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// freshProcess is what one fresh process that sets the workload up (world
// build plus the warm-up repetition) and exits costs.
type freshProcess struct {
	seconds []float64 // spawn to exit
	rssMiB  []float64 // the process's VmHWM at exit
}

// timeSetups sets the workload up in setupRuns fresh processes. Timing from
// spawn to exit makes work moved into package initialization or world
// construction show in setup_s. The same processes give peak_rss_mb: one
// repetition in a fresh process has one memory footprint, whereas the
// measuring process's own high-water mark depends on how often a GC emptied
// the repository's sync.Pools mid-run (link_bulk read 223 to 411 MiB).
func timeSetups(o options) (freshProcess, error) {
	var fp freshProcess
	exe, err := os.Executable()
	if err != nil {
		return fp, err
	}
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "-setup-only", "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10))
		cmd.Stderr = os.Stderr
		start := time.Now()
		out, err := cmd.Output()
		if err != nil {
			return fp, fmt.Errorf("set-up process: %w", err)
		}
		fp.seconds = append(fp.seconds, time.Since(start).Seconds())
		rss, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return fp, fmt.Errorf("set-up process: peak RSS: %w", err)
		}
		fp.rssMiB = append(fp.rssMiB, rss)
	}
	return fp, nil
}

// loopResult aggregates the repetitions of one measured loop.
type loopResult struct {
	reps              int
	attempted, failed int
	duplicated        int
	notes             []string
	digest            string
	perRep            map[string][]float64 // ops_per_s, allocs_per_op, bytes_per_op, workload timings
	counts            map[string]float64   // repetition 0's exact counts
}

// measureLoop runs repetitions 0,1,2,... until the time box is spent (or
// exactly reps repetitions when reps > 0). It deliberately does not force a
// GC between repetitions: runtime.GC() moves the goroutine to another P
// about every other time, bench.Run's pooled scratch (a per-P sync.Pool
// slot) is then missed, and the repetition pays for a fresh 100 MB arena —
// half the repetitions of link_bulk ran a quarter slower, and the run's
// median flipped between the two modes.
func measureLoop(w scenario, seconds float64, reps int) loopResult {
	res := loopResult{perRep: map[string][]float64{}}
	start := time.Now()
	for r := 0; ; r++ {
		if reps > 0 && r == reps {
			break
		}
		if reps == 0 && r >= minReps && time.Since(start).Seconds() >= seconds {
			break
		}
		rr := w.rep(r)
		res.reps++
		res.attempted += rr.attempted
		res.failed += rr.failed
		res.duplicated += rr.duplicated
		res.notes = append(res.notes, rr.notes...)
		if r == 0 {
			res.counts = rr.counts
			if rr.simText != "" {
				res.digest = fmt.Sprintf("%x", sha256.Sum256([]byte(rr.simText)))
			}
		}
		ops := float64(max(rr.attempted-rr.failed, 1))
		add := func(name string, v float64) { res.perRep[name] = append(res.perRep[name], v) }
		add("ops_per_s", ops/rr.m.dur.Seconds())
		add("allocs_per_op", float64(rr.m.mallocs)/ops)
		add("bench.alloc_bytes_per_op", float64(rr.m.bytes)/ops)
		for name, v := range rr.timings {
			add(name, v)
		}
	}
	return res
}

// unitOf looks a metric's unit up in the manifest.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// execute performs one run in this process: warm-up, the measured loop
// and, on a traced run, the layer part. fresh holds what the fresh set-up
// processes cost (timed runs only).
func execute(w scenario, o options, fresh freshProcess) (runRecord, error) {
	rec := runRecord{Env: readEnv(), Workload: o.workload, Seed: o.seed, Trace: o.trace,
		Failures: []string{}, Metrics: map[string]summary{}}
	put := func(name string, s summary) {
		if s.Unit = unitOf(name); s.Unit == "" {
			panic("metric missing from the manifest: " + name)
		}
		rec.Metrics[name] = s
	}
	if o.trace == 0 {
		put("setup_s", summarize(fresh.seconds))
		put("peak_rss_mb", summarize(fresh.rssMiB))
	}
	w.setup()

	// A traced run spends a quarter of its time on the untraced loop that
	// yields the exact counts, and the rest on the layers.
	loopSeconds := o.seconds
	if o.trace == 1 {
		loopSeconds = o.seconds / 4
	}
	loop := measureLoop(w, loopSeconds, o.reps)
	for name, xs := range loop.perRep {
		put(name, summarize(xs))
	}
	for name, v := range loop.counts {
		put(name, exact(v))
	}
	put("bench.rep_iqr_share", exact(rec.Metrics["ops_per_s"].iqrShare()))

	if o.trace == 1 {
		tr := newTracer(1 << 21)
		if err := tr.writeTo(o.spans); err != nil {
			return rec, err
		}
		for name, s := range w.layers(tr, time.Duration(o.seconds*0.6*float64(time.Second))) {
			put(name, s)
		}
		if tr.fileErr != nil {
			return rec, tr.fileErr
		}
	}
	rec.ProcessPeakRSSMiB = peakRSSMiB()

	rec.Failures = append(rec.Failures, loop.notes...)
	rec.Failures = append(rec.Failures, w.finish()...)
	rec.Reps, rec.OpsAttempted, rec.OpsFailed, rec.OpsDuplicated = loop.reps, loop.attempted, loop.failed, loop.duplicated
	rec.Correct = loop.failed == 0 && len(rec.Failures) == 0
	rec.SimDigest = loop.digest
	if pin, ok := pinnedDigests[o.workload]; ok && o.seed == pinnedSeed && loop.digest != "" {
		rec.SimDigestChanged = pin != loop.digest
	}
	return rec, nil
}

// run executes one timed (-trace 0) or traced (-trace 1) run, prints it and
// appends it to -out.
func run(w scenario, o options) (runRecord, error) {
	var fresh freshProcess
	if o.trace == 0 {
		var err error
		if fresh, err = timeSetups(o); err != nil {
			return runRecord{}, err
		}
	} else if o.spans == "" {
		o.spans = ".bench_build/spans-" + o.workload + ".jsonl"
	}
	rec, err := execute(w, o, fresh)
	if err != nil {
		return rec, err
	}
	report(rec)
	if o.trace == 1 {
		fmt.Printf("spans of the first traced repetition: %s\n", o.spans)
	}
	if o.out != "" {
		if err := appendJSONLine(o.out, rec); err != nil {
			return rec, err
		}
	}
	// The contract's result line: exactly the end-to-end metrics of a timed
	// run, exactly the per-layer metrics of a traced one.
	fmt.Println(contractLine(rec))
	return rec, nil
}

// contractLine renders the run's last line of output. A per-layer metric
// whose layer is not on the workload's path reads 0.
func contractLine(rec runRecord) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if rec.Trace == 1 {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{rec.Metrics[d.Name].Median, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.OpsAttempted, rec.OpsFailed, metrics})
	if err != nil { // plain data: cannot happen
		panic(err)
	}
	return string(b)
}

// report prints the run for a reader: stamp, verdict, then every metric
// the run produced with median, quartiles and sample count.
func report(rec runRecord) {
	e := rec.Env
	fmt.Printf("lamsbench %s  seed=%d trace=%d reps=%d\n", rec.Workload, rec.Seed, rec.Trace, rec.Reps)
	fmt.Printf("env: %s, nproc=%d GOMAXPROCS=%d %s commit=%s\n", e.CPUModel, e.NProc, e.GOMAXPROCS, e.GoVersion, e.GitCommit)
	fmt.Printf("ops_attempted=%d ops_failed=%d ops_duplicated=%d correct=%v (this process peaked at %.0f MiB)\n",
		rec.OpsAttempted, rec.OpsFailed, rec.OpsDuplicated, rec.Correct, rec.ProcessPeakRSSMiB)
	for _, f := range rec.Failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	switch {
	case rec.SimDigest == "":
		fmt.Println("sim_digest: none (nothing simulated)")
	case rec.SimDigestChanged:
		fmt.Printf("sim_digest: %s  sim_digest_changed: pinned %s\n", rec.SimDigest, pinnedDigests[rec.Workload])
	default:
		fmt.Printf("sim_digest: %s\n", rec.SimDigest)
	}
	if rec.Workload == "live_loopback" {
		fmt.Println("note: traffic crossed an in-process net.Pipe, not a real link")
	}
	line := func(kind string, d metricDef) {
		s, ok := rec.Metrics[d.Name]
		if !ok {
			return
		}
		fmt.Printf("%-10s %-28s %16.6g %-8s q1=%.6g q3=%.6g n=%d\n", kind, d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N)
	}
	for _, d := range endToEnd {
		line("end-to-end", d)
	}
	for _, d := range perLayer {
		line("per-layer", d)
	}
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
