package main

import (
	"encoding/json"
	"fmt"
)

// This file is the single source of the benchmark's names: workloads,
// end-to-end metrics with their regression bounds, and per-layer metrics.
// BENCHMARK.json at the repository root is `lamsbench -manifest` verbatim;
// TestManifestMatchesFile keeps the two from drifting.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

var workloadDefs = []workloadDef{
	{"link_bulk", "paper's canonical point (300 Mb/s, 4,000 km, P_F 0.05): steady-state LAMS-DLC, ~3 events/op, so sim, channel, lamsdlc and metrics do all the work; codec, shard, live do none"},
	{"link_engines_burst", "same link under Gilbert-Elliott bursts, lams/srhdlc/gbn/ssarq in turn: stateful error model, recovery paths and the three non-LAMS engines, so a gain bought on link_bulk at their cost shows"},
	{"const1024_shards1", "1,024-satellite constellation on one shard: timer-dominated (~100 events/op), multi-hop node forwarding, handover churn; bypasses barriers and mailboxes, so it is the control for shard-engine changes"},
	{"const1024_shards2", "identical scenario on two shards: exercises barriers, lookahead window, mailboxes and partitioning; its report must equal the one-shard report byte for byte"},
	{"tables", "bench.All() (E1-E21), what lamstables users run: hundreds of short runs, so world construction, pool warm-up and RunMany scheduling dominate instead of steady-state event cost"},
	{"live_loopback", "two live.Endpoints over an in-process net.Pipe (not a real link), closed loop with 64 outstanding: the only path where frame codec, CRC, byte stuffing, deframer and the wall-clock Driver run"},
}

// endToEnd lists the metrics a user of the system sees; every workload
// reports all of them. README.md records the run-to-run spreads the bounds
// were set against.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.15},
	{"allocs_per_op", "1/op", "lower", 0.10},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer lists the single-layer metrics of the traced run, grouped by the
// repository's module names. A metric that does not apply to a workload
// (the layer is not on its path) reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{Name: "sim.events_per_op", Unit: "1/op", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "sim.cancelled_share", Unit: "ratio", Better: "lower"},
		{Name: "sim.queue_peak", Unit: "count", Better: "lower"},
		{Name: "sim.alone_ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "sim.share", Unit: "ratio", Better: "higher"},

		{Name: "channel.frames_per_op", Unit: "1/op", Better: "lower"},
		{Name: "channel.corrupted_share", Unit: "ratio", Better: "lower"},
		{Name: "channel.wire_queue_mean_us", Unit: "us", Better: "lower"},
		{Name: "channel.send_ns", Unit: "ns", Better: "lower"},
		{Name: "channel.send_share", Unit: "ratio", Better: "lower"},
		{Name: "channel.alone_ns_per_frame", Unit: "ns", Better: "lower"},

		{Name: "lamsdlc.retx_per_op", Unit: "1/op", Better: "lower"},
		{Name: "lamsdlc.ctrl_per_op", Unit: "1/op", Better: "lower"},
		{Name: "lamsdlc.recoveries", Unit: "count", Better: "lower"},
		{Name: "lamsdlc.enqueue_ns", Unit: "ns", Better: "lower"},
		{Name: "lamsdlc.rx_frame_ns", Unit: "ns", Better: "lower"},
		{Name: "lamsdlc.tx_ctrl_ns", Unit: "ns", Better: "lower"},
		{Name: "lamsdlc.share", Unit: "ratio", Better: "lower"},
		{Name: "lamsdlc.ops_per_s", Unit: "op/s", Better: "higher"},
		{Name: "lamsdlc.sim_efficiency", Unit: "ratio", Better: "higher"},

		{Name: "hdlc.sr_ops_per_s", Unit: "op/s", Better: "higher"},
		{Name: "hdlc.gbn_ops_per_s", Unit: "op/s", Better: "higher"},
		{Name: "hdlc.sr_retx_per_op", Unit: "1/op", Better: "lower"},
		{Name: "hdlc.gbn_retx_per_op", Unit: "1/op", Better: "lower"},
		{Name: "hdlc.sr_sim_efficiency", Unit: "ratio", Better: "higher"},
		{Name: "hdlc.gbn_sim_efficiency", Unit: "ratio", Better: "higher"},
		{Name: "hdlc.enqueue_ns", Unit: "ns", Better: "lower"},
		{Name: "hdlc.rx_frame_ns", Unit: "ns", Better: "lower"},
		{Name: "hdlc.tx_ctrl_ns", Unit: "ns", Better: "lower"},

		{Name: "ssarq.ops_per_s", Unit: "op/s", Better: "higher"},
		{Name: "ssarq.retx_per_op", Unit: "1/op", Better: "lower"},
		{Name: "ssarq.sim_efficiency", Unit: "ratio", Better: "higher"},
		{Name: "ssarq.enqueue_ns", Unit: "ns", Better: "lower"},
		{Name: "ssarq.rx_frame_ns", Unit: "ns", Better: "lower"},
		{Name: "ssarq.tx_ctrl_ns", Unit: "ns", Better: "lower"},

		{Name: "workload.alone_ns_per_op", Unit: "ns", Better: "lower"},
		{Name: "metrics.cost_share", Unit: "ratio", Better: "lower"},

		{Name: "bench.deliver_ns", Unit: "ns", Better: "lower"},
		{Name: "bench.unattributed_share", Unit: "ratio", Better: "lower"},
		{Name: "bench.alloc_bytes_per_op", Unit: "B/op", Better: "lower"},
		{Name: "bench.rep_iqr_share", Unit: "ratio", Better: "lower"},
	}
	for i := 1; i <= numExperiments; i++ {
		m = append(m, metricDef{Name: fmt.Sprintf("bench.E%d_s", i), Unit: "s", Better: "lower"})
	}
	return append(m, []metricDef{
		{Name: "bench.worker_speedup", Unit: "ratio", Better: "higher"},

		{Name: "shard.build_s", Unit: "s", Better: "lower"},
		{Name: "shard.rounds", Unit: "count", Better: "lower"},
		{Name: "shard.events_per_round", Unit: "count", Better: "higher"},
		{Name: "shard.window_us", Unit: "us", Better: "higher"},
		{Name: "shard.speedup", Unit: "ratio", Better: "higher"},

		{Name: "node.frames_per_op", Unit: "1/op", Better: "lower"},
		{Name: "node.retx_per_op", Unit: "1/op", Better: "lower"},
		{Name: "node.handovers", Unit: "count", Better: "lower"},

		{Name: "frame.encode_i1k_ns", Unit: "ns", Better: "lower"},
		{Name: "frame.decode_i1k_ns", Unit: "ns", Better: "lower"},
		{Name: "frame.encode_cp_ns", Unit: "ns", Better: "lower"},
		{Name: "frame.decode_cp_ns", Unit: "ns", Better: "lower"},
		{Name: "crc.fcs16_ns_per_kib", Unit: "ns/KiB", Better: "lower"},
		{Name: "crc.sum32_ns_per_kib", Unit: "ns/KiB", Better: "lower"},

		{Name: "live.ns_per_op", Unit: "ns", Better: "lower"},
		{Name: "live.frames_per_op", Unit: "1/op", Better: "lower"},
		{Name: "live.retx_per_op", Unit: "1/op", Better: "lower"},
		{Name: "live.stuff_ns_per_kib", Unit: "ns/KiB", Better: "lower"},
		{Name: "live.deframe_ns_per_kib", Unit: "ns/KiB", Better: "lower"},
		{Name: "live.enqueue_call_us", Unit: "us", Better: "lower"},
		{Name: "live.codec_share", Unit: "ratio", Better: "lower"},
		{Name: "live.generator_lag_p99_ms", Unit: "ms", Better: "lower"},

		{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},

		// Demoted from end-to-end: the benchmark contract requires every
		// end-to-end metric on every workload, and these exist only on the
		// simulated (sim_*) or the live (live_*) workloads. sim_* are exact
		// for a fixed seed; the sim_digest check guards them.
		{Name: "sim_makespan_s", Unit: "s", Better: "lower"},
		{Name: "sim_efficiency", Unit: "ratio", Better: "higher"},
		{Name: "live_delay_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "live_delay_p99_ms", Unit: "ms", Better: "lower"},
	}...)
}

// numExperiments is the size of bench.All(): E1..E21.
const numExperiments = 21

// manifestJSON renders BENCHMARK.json.
func manifestJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil { // plain data: cannot happen
		panic(err)
	}
	return append(b, '\n')
}
