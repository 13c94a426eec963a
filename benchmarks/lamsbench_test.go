package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

// tiny shrinks every workload's fixed work so the self-tests stay quick.
const tiny = 0.01

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// boundOf returns the end-to-end metric of the given name.
func boundOf(t *testing.T, name string) metricDef {
	t.Helper()
	for _, d := range endToEnd {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no end-to-end metric %s", name)
	return metricDef{}
}

// TestManifestMatchesFile pins BENCHMARK.json to the Go tables and checks
// the limits the benchmark contract sets on names, units and counts.
func TestManifestMatchesFile(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `lamsbench -manifest`; regenerate it")
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloadDefs {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s: %d characters, want one line of at most 200", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name, 1, tiny); err != nil {
			t.Error(err)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("unit %q of %s", d.Unit, d.Name)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("better %q of %s", d.Better, d.Name)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound %v of %s, want (0, 0.25]", d.Bound, d.Name)
		}
	}
	if d := boundOf(t, "setup_s"); d.Unit != "s" || d.Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// TestEveryMetricEmitted runs every workload at tiny scale, timed and
// traced, and checks that each run's result line carries exactly the
// manifest's names, that nothing outside the manifest is produced (execute
// panics on that), and that every per-layer metric is produced by at least
// one workload.
func TestEveryMetricEmitted(t *testing.T) {
	produced := map[string]bool{}
	for _, def := range workloadDefs {
		for trace := 0; trace <= 1; trace++ {
			w, err := newWorkload(def.Name, 1, tiny)
			if err != nil {
				t.Fatal(err)
			}
			o := options{workload: def.Name, seed: 1, seconds: 0.05, reps: 1, trace: trace}
			rec, err := execute(w, o, freshProcess{seconds: []float64{0.1, 0.2, 0.3}, rssMiB: []float64{50, 60, 70}})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.OpsFailed != 0 || rec.OpsAttempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d %v",
					def.Name, trace, rec.Correct, rec.OpsAttempted, rec.OpsFailed, rec.Failures)
			}
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(contractLine(rec)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: result line: %v", def.Name, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s: result line lacks correct/attempted/failed", def.Name)
			}
			want := endToEnd
			if trace == 1 {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics in the result line, want %d", def.Name, trace, len(line.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s missing or without value/unit", def.Name, trace, d.Name)
					continue
				}
				if trace == 0 && !(*m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.Name, d.Name, *m.Value)
				}
				if math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
					t.Errorf("%s: metric %s = %v", def.Name, d.Name, *m.Value)
				}
			}
			for n := range rec.Metrics {
				produced[n] = true
			}
		}
	}
	for _, d := range perLayer {
		if !produced[d.Name] {
			t.Errorf("per-layer metric %s is produced by no workload", d.Name)
		}
	}
}

// TestHandBuiltMatchesBenchRun pins the traced stack to the real runner:
// same deliveries, retransmissions, simulated makespan and event count for
// all four engines on both channel models, with and without the shims.
func TestHandBuiltMatchesBenchRun(t *testing.T) {
	for _, w := range []*linkWorkload{newLinkBulk(1, 0.02), newLinkEnginesBurst(1, 0.04)} {
		for _, e := range []linkEngine{engLAMS, engSR, engGBN, engSSARQ} {
			for r := 0; r < 2; r++ {
				cfg := w.config(e, r)
				want := bench.Run(cfg)
				for _, tr := range []*tracer{nil, newTracer(1 << 16)} {
					got := runHandBuilt(cfg, e, tr, true)
					if got.Delivered != want.Delivered || got.Retransmissions != want.Retransmissions ||
						got.Elapsed != want.Elapsed || got.Executed != want.Snapshot.Counter("sim_events_executed_total") {
						t.Errorf("%s %s rep %d traced=%v: hand-built {delivered %d retx %d elapsed %v events %d}, bench.Run {%d %d %v %d}",
							w.imodel, e.proto, r, tr != nil, got.Delivered, got.Retransmissions, got.Elapsed, got.Executed,
							want.Delivered, want.Retransmissions, want.Elapsed, want.Snapshot.Counter("sim_events_executed_total"))
					}
				}
			}
		}
	}
}

// spanLine is one line of the span JSONL.
type spanLine struct {
	Rep    int    `json:"rep"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// TestSpanSelfTimesSumToRoot: attributed plus unattributed self time must
// equal the root spans' duration, exactly by construction.
func TestSpanSelfTimesSumToRoot(t *testing.T) {
	tr := newTracer(1 << 16)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.writeTo(path); err != nil {
		t.Fatal(err)
	}
	w := newLinkBulk(1, 0.02)
	for r := 0; r < 3; r++ {
		runHandBuilt(w.config(engLAMS, r), engLAMS, tr, true)
	}
	var sum int64
	var shares float64
	for i, name := range tr.names {
		sum += tr.selfNS[i]
		shares += tr.share(name)
	}
	if sum != tr.rootNS || tr.rootNS == 0 {
		t.Errorf("self times sum to %d ns, root spans to %d ns", sum, tr.rootNS)
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("shares sum to %v", shares)
	}
	for _, name := range []string{"rep", "channel.send", "lamsdlc.enqueue", "lamsdlc.rx_frame", "lamsdlc.tx_ctrl", "bench.deliver"} {
		if _, n := tr.self(name); n == 0 {
			t.Errorf("no %s spans", name)
		}
	}

	// The JSONL holds the first repetition only, one well-formed object per
	// span, each child inside its parent.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []spanLine
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var sp spanLine
		if err := json.Unmarshal([]byte(l), &sp); err != nil {
			t.Fatalf("span line %q: %v", l, err)
		}
		spans = append(spans, sp)
	}
	if len(spans) < 1000 {
		t.Fatalf("%d spans in the JSONL", len(spans))
	}
	for _, s := range spans {
		if s.Rep != 0 {
			t.Fatalf("span of repetition %d in the JSONL", s.Rep)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("span %d [%d,%d] outside its parent %d [%d,%d]", s.ID, s.Start, s.End, p.ID, p.Start, p.End)
			}
		}
	}
}

// TestOpenLoopTimesFromDueTime stalls the sending endpoint for 60 ms under
// the open loop. Enqueue is synchronous, so the generator itself blocks —
// the coordinated-omission case: timed from the actual send, one datagram
// would look slow; timed from the due time, every datagram that was due
// during the stall carries its share of the wait. The rate is a fifth of
// the benchmark's, which the path sustains even under the race detector.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	w := newLiveLoopback(1, tiny)
	w.setup()
	defer w.finish()
	stall := time.AfterFunc(50*time.Millisecond, func() {
		w.tx.Driver.Call(func() { time.Sleep(60 * time.Millisecond) })
	})
	defer stall.Stop()
	delays, lags, failed := w.openLoop(250*time.Millisecond, 2000)
	if failed != 0 {
		t.Fatalf("%d failed ops", failed)
	}
	late := 0
	for _, d := range delays {
		if d > 10 {
			late++
		}
	}
	// 50 ms of stall at 2,000/s makes about 100 datagrams wait over 10 ms.
	if late < 60 {
		t.Errorf("%d of %d datagrams waited over 10 ms; a 60 ms stall should delay about 100", late, len(delays))
	}
	if worst := delays[len(delays)-1]; worst < 40 {
		t.Errorf("worst delay %.1f ms, want the stall's ~60 ms", worst)
	}
	if lag := lags[len(lags)-1]; lag < 40 {
		t.Errorf("worst generator lag %.1f ms: the blocked generator must report how late it ran", lag)
	}
}

// TestCompareVerdicts checks the verdict table on synthetic runs.
func TestCompareVerdicts(t *testing.T) {
	ops := boundOf(t, "ops_per_s") // higher is better
	rss := boundOf(t, "peak_rss_mb")
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{100, 140, 70, 120, 85, 130, 75, 110, 90, 125}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"unchanged", ops, steady, steady, verdictSame},
		{"within bound", ops, steady, scale(steady, 1-ops.Bound/2), verdictSame},
		{"throughput fell beyond the bound", ops, steady, scale(steady, 1-2*ops.Bound), verdictWorse},
		{"throughput rose clearly", ops, steady, scale(steady, 1.2), verdictBetter},
		{"memory grew beyond the bound", rss, steady, scale(steady, 1+2*rss.Bound), verdictWorse},
		{"memory shrank clearly", rss, steady, scale(steady, 0.7), verdictBetter},
		{"spread wider than the bound, runs interleave", ops, noisy, scale(noisy, 0.97), verdictUnresolved},
		{"noisy but every new run beats every old run", ops, noisy, scale(noisy, 3), verdictBetter},
		{"single runs", ops, []float64{100}, []float64{70}, verdictWorse},
	} {
		if got, _ := judge(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFiles drives -compare end to end: the table, the exit code and
// the refusal to compare across machines.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(file string, env envStamp, opsPerS float64) string {
		path := filepath.Join(dir, file)
		for i := 0; i < 3; i++ {
			rec := runRecord{Env: env, Workload: "link_bulk", Seed: 1, Correct: true, Metrics: map[string]summary{
				"ops_per_s": exact(opsPerS + float64(i)), "setup_s": exact(0.1),
				"allocs_per_op": exact(0.002), "peak_rss_mb": exact(200),
			}}
			if err := appendJSONLine(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	here := envStamp{CPUModel: "cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24", GitCommit: "a"}
	other := here
	other.GitCommit, other.NProc = "b", 64
	old := write("old.jsonl", here, 1000)

	var out bytes.Buffer
	if code := compareFiles(&out, old, write("same.jsonl", envStamp{"cpu", 2, 2, "go1.24", "b"}, 1001), false); code != 0 {
		t.Errorf("same commit-to-commit numbers: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, old, write("slow.jsonl", here, 500), false); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("halved throughput: exit %d\n%s", code, out.String())
	}
	slowElsewhere := write("elsewhere.jsonl", other, 500)
	if code := compareFiles(&out, old, slowElsewhere, false); code != 2 {
		t.Errorf("differing environments: exit %d, want refusal (2)", code)
	}
	if code := compareFiles(&out, old, slowElsewhere, true); code != 1 {
		t.Errorf("differing environments with -force: exit %d, want 1", code)
	}
}
