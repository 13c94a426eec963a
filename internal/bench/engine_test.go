package bench

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// withWorkers runs fn with the pool fixed at n, restoring the default after.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	SetWorkers(n)
	defer SetWorkers(0)
	fn()
}

func TestSetWorkers(t *testing.T) {
	withWorkers(t, 3, func() {
		if Workers() != 3 {
			t.Fatalf("Workers() = %d, want 3", Workers())
		}
	})
	if Workers() < 1 {
		t.Fatalf("default Workers() = %d, want >= 1", Workers())
	}
	SetWorkers(-5) // negative restores the default, never a dead pool
	if Workers() < 1 {
		t.Fatalf("Workers() after SetWorkers(-5) = %d", Workers())
	}
}

func TestDeriveSeedDistinctAndStable(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		s := DeriveSeed(1, i)
		if s == 0 {
			t.Fatalf("DeriveSeed(1, %d) = 0", i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed collision: i=%d and i=%d", prev, i)
		}
		seen[s] = i
	}
	if DeriveSeed(1, 7) != DeriveSeed(1, 7) {
		t.Fatal("DeriveSeed is not a pure function")
	}
	if DeriveSeed(1, 7) == DeriveSeed(2, 7) {
		t.Fatal("DeriveSeed ignores the base seed")
	}
}

// batchConfigs is a small mixed batch covering both protocols and a few
// distinct shapes, cheap enough to run twice under -race.
func batchConfigs() []RunConfig {
	var cfgs []RunConfig
	for i, pf := range []float64{0.02, 0.1, 0.25} {
		cl := withErrors(Base(), pf, pf/4)
		cl.N = 200
		cl.Seed = uint64(i) + 1
		ch := cl
		ch.Protocol = SRHDLC
		cfgs = append(cfgs, cl, ch)
	}
	return cfgs
}

// TestRunManyDeterministicAcrossWorkers is the engine's core guarantee: the
// result table is a pure function of the configs, independent of worker
// count, scheduling, and completion order.
func TestRunManyDeterministicAcrossWorkers(t *testing.T) {
	cfgs := batchConfigs()
	var serial, parallel []RunResult
	withWorkers(t, 1, func() { serial = RunMany(cfgs) })
	withWorkers(t, 8, func() { parallel = RunMany(cfgs) })
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("RunMany results differ across worker counts:\n1 worker:  %+v\n8 workers: %+v", serial, parallel)
	}
	// And against the plain serial Run loop: RunMany must reproduce it
	// exactly (the configs' own seeds are used verbatim).
	for i, c := range cfgs {
		if got := Run(c); !reflect.DeepEqual(got, serial[i]) {
			t.Fatalf("RunMany[%d] != Run(cfgs[%d])", i, i)
		}
	}
}

// TestExperimentDeterministicAcrossWorkers renders a full experiment Result
// at 1 and 8 workers and requires byte-identical output.
func TestExperimentDeterministicAcrossWorkers(t *testing.T) {
	var one, eight string
	withWorkers(t, 1, func() { one = E2LowTrafficDelay().Render() })
	withWorkers(t, 8, func() { eight = E2LowTrafficDelay().Render() })
	if one != eight {
		t.Fatalf("E2 output differs across worker counts:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", one, eight)
	}
}

// TestE7NoSharedChannelModels runs E7 alone at 8 workers. A BurstTrain
// memoises per-frame-length probabilities, so two configurations sharing one
// instance race on that cache as soon as RunMany puts them on different
// workers (E7's LAMS and SR-HDLC configurations once did). Under -race
// (make ci) this test is the detector; in any build it pins the table
// across worker counts.
func TestE7NoSharedChannelModels(t *testing.T) {
	var one, eight string
	withWorkers(t, 1, func() { one = E7BurstResilience().Render() })
	withWorkers(t, 8, func() { eight = E7BurstResilience().Render() })
	if one != eight {
		t.Fatalf("E7 output differs across worker counts:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", one, eight)
	}
}

// TestMultiHopDeterministicAcrossWorkers extends the determinism pin to a
// constellation run carried over the HDLC baselines: E18 relays through a
// 3-node line under every registered engine, so its rendered table covers
// multi-hop-over-HDLC as well as LAMS. Byte-identical output at 1 and 8
// workers, like E2's pin.
func TestMultiHopDeterministicAcrossWorkers(t *testing.T) {
	var one, eight string
	withWorkers(t, 1, func() { one = E18MultiHopRelay().Render() })
	withWorkers(t, 8, func() { eight = E18MultiHopRelay().Render() })
	if one != eight {
		t.Fatalf("E18 output differs across worker counts:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", one, eight)
	}
	for _, proto := range []string{"SR-HDLC", "GBN-HDLC", "LAMS-DLC"} {
		if !strings.Contains(one, proto) {
			t.Fatalf("E18 table is missing the %s row:\n%s", proto, one)
		}
	}
}

func TestSweepParallelDerivesSeeds(t *testing.T) {
	// An error process makes the runs seed-sensitive; on a perfect channel
	// every replicate is identical by design.
	base := withErrors(Base(), 0.1, 0.025)
	base.N = 100
	withWorkers(t, 4, func() {
		results := SweepParallel(base, 6, func(i int, c *RunConfig) {
			// Runs on worker goroutines; testing.T is safe for concurrent use.
			if c.Seed != DeriveSeed(base.Seed, i) {
				t.Errorf("point %d: seed %d, want DeriveSeed(%d, %d)", i, c.Seed, base.Seed, i)
			}
		})
		if len(results) != 6 {
			t.Fatalf("got %d results, want 6", len(results))
		}
		// Replicates with independent seeds should not all be identical.
		same := true
		for _, res := range results[1:] {
			if !reflect.DeepEqual(res, results[0]) {
				same = false
			}
		}
		if same {
			t.Fatal("all replicate points identical; seed derivation is not taking effect")
		}
	})
}

func TestMapIndexedPanicPropagates(t *testing.T) {
	withWorkers(t, 4, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("worker panic did not propagate")
			}
			if !strings.Contains(r.(string), "boom") {
				t.Fatalf("panic value %v does not carry the cause", r)
			}
		}()
		mapIndexed(64, func(i int) int {
			if i == 13 {
				panic("boom")
			}
			return i
		})
	})
}

func TestMapIndexedOrderAndCoverage(t *testing.T) {
	withWorkers(t, 7, func() {
		out := mapIndexed(100, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
			}
		}
	})
	if n := len(mapIndexed(0, func(int) int { return 0 })); n != 0 {
		t.Fatalf("empty batch returned %d results", n)
	}
}

// TestRunManySharesNothing runs two identical configs concurrently and
// expects identical results — a canary for hidden shared state (a shared
// RNG or scheduler would make them diverge).
func TestRunManySharesNothing(t *testing.T) {
	c := Base()
	c.N = 300
	c.Tproc = 10 * sim.Microsecond
	withWorkers(t, 2, func() {
		res := RunMany([]RunConfig{c, c})
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Fatalf("identical configs diverged under concurrency:\n%+v\n%+v", res[0], res[1])
		}
	})
}

// renderAll concatenates the rendered tables of a result set.
func renderAll(results []*Result) string {
	var sb strings.Builder
	for _, r := range results {
		sb.WriteString(r.Render())
	}
	return sb.String()
}

// peakRunning runs fn and returns the most slots of the run budget a sampler
// saw held while it ran.
func peakRunning(fn func()) int {
	stop, sampled := make(chan struct{}), make(chan int)
	go func() {
		peak := 0
		for {
			select {
			case <-stop:
				sampled <- peak
				return
			case <-time.After(50 * time.Microsecond):
			}
			budgetMu.Lock()
			peak = max(peak, running)
			budgetMu.Unlock()
		}
	}()
	fn()
	close(stop)
	return <-sampled
}

// TestAllDeterministicAcrossWorkers pins what the overlap must not change:
// All() renders the same bytes at every budget, and the same bytes as the
// experiments run alone, one after another. The one-worker leg is also the
// deadlock pin — 21 experiments started at once on a budget of one must
// finish (the test timeout is the guard) with never two runs in flight.
func TestAllDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	var alone strings.Builder
	withWorkers(t, 2, func() {
		for _, row := range Titles() {
			id := row[0]
			res := ByID(id)()
			if res.ID != id {
				t.Errorf("ByID(%q) produced result %q", id, res.ID)
			}
			alone.WriteString(res.Render())
		}
	})
	for _, workers := range []int{1, 2, 8} {
		withWorkers(t, workers, func() {
			var got string
			peak := peakRunning(func() { got = renderAll(All()) })
			if got != alone.String() {
				t.Errorf("All() at %d workers differs from the experiments rendered one by one", workers)
			}
			if peak < 1 || peak > workers {
				t.Errorf("sampled a peak of %d runs in flight at SetWorkers(%d)", peak, workers)
			}
		})
	}
}

// inFlight counts pool items from inside fn: enter returns the number
// executing (the caller included), max is the highest it ever returned.
type inFlight struct{ now, max atomic.Int64 }

func (f *inFlight) enter() int64 {
	n := f.now.Add(1)
	for m := f.max.Load(); n > m && !f.max.CompareAndSwap(m, n); m = f.max.Load() {
	}
	return n
}

func (f *inFlight) leave() { f.now.Add(-1) }

// TestRunBudget is the bound itself: concurrent batches together never
// execute more than Workers() items, and do fill the budget. The first three
// items admitted wait for each other, so reaching 3 does not depend on timing.
func TestRunBudget(t *testing.T) {
	const limit = 3
	var (
		f    inFlight
		full = make(chan struct{})
		once sync.Once
		wg   sync.WaitGroup
	)
	withWorkers(t, limit, func() {
		for b := 0; b < 4; b++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mapIndexed(16, func(i int) int {
					defer f.leave()
					if f.enter() == limit {
						once.Do(func() { close(full) })
					}
					select {
					case <-full:
					case <-time.After(10 * time.Second):
						t.Error("the budget never filled: fewer than 3 items were admitted together")
					}
					return i
				})
			}()
		}
		wg.Wait()
	})
	if got := f.max.Load(); got != limit {
		t.Fatalf("saw at most %d items executing, want exactly %d", got, limit)
	}
	if running != 0 {
		t.Fatalf("budget unbalanced after the batches: %d slots still held", running)
	}
}

// TestSetWorkersAdmitsWaiters raises the budget while a batch waits for a
// slot another batch's item is sitting on: the waiter must be admitted by
// the raise, not by the release.
func TestSetWorkersAdmitsWaiters(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(1)
	var (
		holding = make(chan struct{})
		release = make(chan struct{})
		ran     = make(chan struct{})
		wg      sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		mapIndexed(1, func(int) int { close(holding); <-release; return 0 })
	}()
	<-holding
	go func() {
		defer wg.Done()
		mapIndexed(1, func(int) int { close(ran); return 0 })
	}()
	// Give the second batch time to block on the budget. The test passes
	// either way; the pause only makes it exercise the wake-up.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-ran:
		t.Fatal("a second item executed at SetWorkers(1) while the first held the slot")
	default:
	}
	SetWorkers(2)
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Error("raising the budget did not admit the waiting item")
	}
	close(release)
	wg.Wait()
}

// TestAllPanicNamesExperiment: a panic inside an experiment's run surfaces
// from the suite on the caller's goroutine, names the experiment, and leaves
// the budget balanced — a leaked slot would hang the one-worker suite after.
func TestAllPanicNamesExperiment(t *testing.T) {
	items := func(id string, bad int) experiment {
		return experiment{id, "", func() *Result {
			mapIndexed(8, func(i int) int {
				if i == bad {
					panic("boom")
				}
				return i
			})
			return &Result{ID: id}
		}}
	}
	table := []experiment{items("EX1", -1), items("EX2", 5), items("EX3", -1)}
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers, func() {
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, "EX2") || !strings.Contains(msg, "boom") {
						t.Fatalf("panic %q does not name the experiment and the cause", msg)
					}
				}()
				runAll(table)
				t.Fatal("the experiment's panic did not propagate")
			}()
			if running != 0 {
				t.Fatalf("budget unbalanced after the panic: %d slots still held", running)
			}
		})
	}
	withWorkers(t, 1, func() {
		if got := runAll(table[:1]); len(got) != 1 || got[0].ID != "EX1" {
			t.Fatalf("suite after a panic returned %+v", got)
		}
	})
}

// TestMapIndexedRejectsNesting: an item that starts a batch would wait on
// the slot it holds; the engine panics instead of deadlocking.
func TestMapIndexedRejectsNesting(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers, func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "do not nest") {
					t.Fatalf("nested batch at %d workers: got %q, want the nesting panic", workers, msg)
				}
			}()
			mapIndexed(4, func(i int) int {
				return mapIndexed(2, func(j int) int { return j })[0]
			})
		})
	}
}
