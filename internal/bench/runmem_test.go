package bench

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/arq"
	"repro/internal/workload"
)

// mallocs counts the heap objects fn allocates, with the collector forced
// (twice: a sync.Pool survives one cycle in its victim cache) before the
// count starts when gc is set.
func mallocs(gc bool, fn func()) uint64 {
	if gc {
		runtime.GC()
		runtime.GC()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRunAllocsIndependentOfGC pins what the run memory is for: how much a
// run allocates is a property of the run, not of when the collector last ran.
// With sync.Pools under the scheduler, the sending buffer and the pipes, a
// collection between two runs emptied them and the second run re-allocated
// its whole working set.
func TestRunAllocsIndependentOfGC(t *testing.T) {
	for _, name := range arq.Protocols() {
		p := Protocol(name)
		c := withErrors(Base(), 0.05, 0.01)
		c.Protocol = p
		c.N = 2000
		run := func() { Run(c) }
		run()
		run() // the second run starts on the first's donated memory
		// Mallocs is the whole process's count, and a forced collection makes
		// the runtime allocate a little of its own now and then (worker
		// goroutines, sudogs once its caches are emptied), so "the same"
		// allows a handful of objects; the working set the pools used to
		// drop at each collection is two thousand.
		same := func(a, b uint64) bool { return max(a, b)-min(a, b) <= 16 }
		want := mallocs(false, run)
		for i := 0; i < 3; i++ {
			if got := mallocs(false, run); !same(got, want) {
				t.Fatalf("%v: run %d allocated %d objects, the one before %d", p, i, got, want)
			}
			if got := mallocs(true, run); !same(got, want) {
				t.Fatalf("%v: a run after a forced collection allocated %d objects, %d without", p, got, want)
			}
		}
		t.Logf("%v: %d objects per warm run", p, want)
		// What remains is building the world — scheduler, registry and its
		// instruments, link, pair, generator, result snapshot — not the
		// run's 2,000 datagrams.
		if want > 400 {
			t.Fatalf("%v: a warm 2,000-datagram run allocates %d objects, more than world construction", p, want)
		}
	}
	workload.VerifyZeroPage()
}

// TestRunParseBudget pins a warm run's allocation count where the benchmark's
// link_bulk repetition feels it: Run resolves one engine name and parses two
// channel specs per run, ≈ 190 allocations is the whole 100,000-datagram
// repetition, and its bound is 10 % — a spec parser a dozen allocations
// heavier would breach it. 185 is what the hand-written parsers cost.
func TestRunParseBudget(t *testing.T) {
	c := Base()
	c.IModelSpec, c.CModelSpec = "fixed:p=0.05", "fixed:p=0.0125"
	c.N = 2000
	Run(c)
	Run(c)
	if n := testing.AllocsPerRun(20, func() { Run(c) }); n > 185 {
		t.Errorf("a warm run costs %v allocations, budget 185", n)
	} else {
		t.Logf("a warm run costs %v allocations", n)
	}
}

// TestRecycledCounterIsRunLocal pins the snapshot against the run memory's
// history: sim_events_recycled_total counts reuse within this scheduler's
// life only, so the same configuration reports the same snapshot whatever ran
// before it on the memory it adopted, and on whichever goroutine.
func TestRecycledCounterIsRunLocal(t *testing.T) {
	c := withErrors(Base(), 0.05, 0.01)
	c.N = 300
	first := Run(c)
	donor := c
	donor.N = 100 * c.N
	Run(donor)
	after := Run(c)
	var elsewhere RunResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		elsewhere = Run(c)
	}()
	<-done
	if first.Snapshot.Counters["sim_events_recycled_total"] == 0 {
		t.Fatal("the run recycled no event; the pin measures nothing")
	}
	for name, res := range map[string]RunResult{"after a 100x donor": after, "on another goroutine": elsewhere} {
		if got, want := res.Snapshot.Counters["sim_events_recycled_total"], first.Snapshot.Counters["sim_events_recycled_total"]; got != want {
			t.Errorf("%s: sim_events_recycled_total = %d, want %d", name, got, want)
		}
		if !reflect.DeepEqual(res, first) {
			t.Errorf("%s: result differs from the first run's", name)
		}
	}
}

// TestMemSmoke runs the benchmark's link_bulk configuration — the paper's
// canonical point, 100,000 saturating 1 KiB datagrams — three times in a
// process that has done nothing else: this test binary, started again to run
// only this test. Its high-water resident set must stay near the protocol's
// own working set (it was 116 MiB when every run materialised its payloads),
// and runs 2 and 3 must allocate exactly the same number of objects. The race
// detector's shadow memory makes the resident set meaningless, so under -race
// only the allocation counts are compared.
func TestMemSmoke(t *testing.T) {
	const alone = "^TestMemSmoke$"
	if f := flag.Lookup("test.run"); f == nil || f.Value.String() != alone {
		out, err := exec.Command(os.Args[0], "-test.run="+alone, "-test.count=1", "-test.v").CombinedOutput()
		if err != nil {
			t.Fatalf("%s in a fresh process: %v\n%s", alone, err, out)
		}
		t.Logf("%s in a fresh process:\n%s", alone, out)
		return
	}
	c := withErrors(Base(), 0.05, 0.0125)
	c.N = 100_000
	var allocated [3]uint64
	for i := range allocated {
		allocated[i] = mallocs(false, func() {
			if res := Run(c); res.Lost != 0 {
				t.Fatalf("run %d lost %d datagrams", i+1, res.Lost)
			}
		})
	}
	if allocated[1] != allocated[2] {
		t.Errorf("runs 2 and 3 allocated %d and %d objects, want equal", allocated[1], allocated[2])
	}
	if raceEnabled() {
		t.Logf("allocations per run %v; VmHWM not checked under -race", allocated)
		return
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no resident-set high-water mark on this platform: %v", err)
	}
	var hwmKB int
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fmt.Sscanf(strings.TrimSpace(rest), "%d kB", &hwmKB)
		}
	}
	const limitMiB = 32
	t.Logf("allocations per run %v, VmHWM %.1f MiB (limit %d)", allocated, float64(hwmKB)/1024, limitMiB)
	if hwmKB == 0 || hwmKB > limitMiB*1024 {
		t.Errorf("VmHWM %d kB, want 0 < VmHWM <= %d MiB", hwmKB, limitMiB)
	}
}

// raceEnabled reports whether this binary was built with -race.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
