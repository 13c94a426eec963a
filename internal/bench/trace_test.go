package bench

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/channel"
)

// traceBase is a small stateful-channel scenario for record/replay tests.
func traceBase(seed uint64) RunConfig {
	c := Base()
	c.N = 150
	c.Seed = seed
	c.IModelSpec = "ge:gber=1e-7,bber=2e-3,mgood=40ms,mbad=4ms,fec=hamming74"
	c.CModelSpec = "ge:gber=1e-8,bber=5e-4,mgood=40ms,mbad=4ms,fec=rep3"
	return c
}

// record runs c live with a recording set attached and returns the result
// plus the trace round-tripped through the binary encoding (so the test
// covers the file format, not just the in-memory path).
func record(t *testing.T, c RunConfig) (RunResult, *channel.TraceSet) {
	t.Helper()
	rec := channel.NewTraceSet()
	c.RecordChannels = rec
	live := Run(c)
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := channel.ReadTraceSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return live, loaded
}

// TestTraceRoundTripSeeds pins the tracesmoke contract: for several seeds,
// a run recorded and then replayed from its own trace is byte-identical —
// same metrics snapshot, same delivery, same virtual clock.
func TestTraceRoundTripSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		c := traceBase(seed)
		live, loaded := record(t, c)

		rc := traceBase(seed)
		rc.ReplayChannels = loaded
		replay := Run(rc)

		if !bytes.Equal(live.Snapshot.JSON(), replay.Snapshot.JSON()) {
			t.Fatalf("seed %d: replay snapshot differs from live", seed)
		}
		if live.Delivered != replay.Delivered || live.Elapsed != replay.Elapsed {
			t.Fatalf("seed %d: replay result differs: %d/%v vs %d/%v",
				seed, live.Delivered, live.Elapsed, replay.Delivered, replay.Elapsed)
		}
	}
}

// TestTraceReplayWorkerInvariance fans a replay batch across the worker
// pool: a replayed TraceSet is shared read-only by concurrent runs, so the
// batch must come out identical at 1 and 8 workers (and identical to the
// live runs it was recorded from).
func TestTraceReplayWorkerInvariance(t *testing.T) {
	var cfgs []RunConfig
	var want []RunResult
	for seed := uint64(1); seed <= 4; seed++ {
		c := traceBase(seed)
		live, loaded := record(t, c)
		want = append(want, live)
		rc := traceBase(seed)
		rc.ReplayChannels = loaded
		cfgs = append(cfgs, rc)
	}

	var serial, parallel []RunResult
	withWorkers(t, 1, func() { serial = RunMany(cfgs) })
	withWorkers(t, 8, func() { parallel = RunMany(cfgs) })
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("replay batch differs between 1 and 8 workers")
	}
	for i := range want {
		if want[i].Delivered != serial[i].Delivered || want[i].Elapsed != serial[i].Elapsed {
			t.Fatalf("run %d: replay differs from the live run it was recorded from", i)
		}
	}
}

// TestTraceReplayEveryEngine replays one recorded channel against every
// registered ARQ engine — E21's core claim in miniature: the trace decouples
// the error process from the protocol under test.
func TestTraceReplayEveryEngine(t *testing.T) {
	for _, proto := range []Protocol{LAMS, SRHDLC, GBNHDLC} {
		c := traceBase(9)
		c.Protocol = proto
		live, loaded := record(t, c)
		rc := traceBase(9)
		rc.Protocol = proto
		rc.ReplayChannels = loaded
		replay := Run(rc)
		if !bytes.Equal(live.Snapshot.JSON(), replay.Snapshot.JSON()) {
			t.Fatalf("%v: replay snapshot differs from live", proto)
		}
	}
}

// TestAnalyticalModelProb pins Analytical on channel.FrameErrorProb: channels without a
// closed-form per-frame probability must surface NaN (rendered "-"), not a
// silent 0 that reads as an error-free channel.
func TestAnalyticalModelProb(t *testing.T) {
	c := Base()
	if pf := c.Analytical().PF; pf != 0 {
		t.Fatalf("perfect channel PF = %v, want 0", pf)
	}

	c = withErrors(Base(), 0.05, 0.01)
	if pf := c.Analytical().PF; pf != 0.05 {
		t.Fatalf("withErrors PF = %v, want 0.05", pf)
	}

	c = Base()
	c.IModelSpec, c.CModelSpec = "fixed:p=0.2", "fixed:p=0.04"
	a := c.Analytical()
	if a.PF != 0.2 || a.PC != 0.04 {
		t.Fatalf("fixed spec PF/PC = %v/%v, want 0.2/0.04", a.PF, a.PC)
	}

	c = Base()
	c.IModelSpec = "ge:gber=1e-7,bber=2e-3,mgood=40ms,mbad=4ms"
	if pf := c.Analytical().PF; !math.IsNaN(pf) {
		t.Fatalf("Gilbert-Elliott PF = %v, want NaN (no closed form)", pf)
	}

	if got := fmtProb(math.NaN()); got != "-" {
		t.Fatalf("fmtProb(NaN) = %q, want \"-\"", got)
	}
	if got := fmtProb(0.05); got != "0.05" {
		t.Fatalf("fmtProb(0.05) = %q", got)
	}
}
