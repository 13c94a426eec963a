package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel experiment engine. Every Run is hermetic — it
// owns its scheduler, RNG, link, and metrics, and its RunResult is a pure
// function of the RunConfig (including Seed) — so a batch of points is
// embarrassingly parallel. The engine has two levels over one bound: a batch
// (mapIndexed) fans its items across goroutines and writes each result into
// the slot matching its input index, which makes the output bit-identical
// regardless of worker count or completion order; and every item, of every
// batch in the process, executes holding one slot of a single run budget of
// Workers() slots. Batches running side by side — the experiments of All()
// — therefore drain through one queue, and a straggler in one is overlapped
// by the others' items instead of idling a core.

// workerCount is the configured budget; 0 means GOMAXPROCS.
var workerCount atomic.Int64

// The process-wide run budget: running counts the pool items executing
// right now and never exceeds Workers(). The limit is read at each acquire,
// so SetWorkers takes effect on the next item, not the next batch.
var (
	budgetMu   sync.Mutex
	budgetFree = sync.NewCond(&budgetMu) // a slot was released or the limit rose
	running    int
)

// SetWorkers fixes the number of simulation runs in flight, process-wide:
// every item of every RunMany and experiment batch holds one
// of these slots while it executes. n <= 0 restores the default
// (GOMAXPROCS). Safe to call concurrently: items already executing finish,
// items waiting for a slot are admitted as soon as the new limit allows.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	budgetMu.Lock() // a waiter between its check and its Wait must not miss this
	workerCount.Store(int64(n))
	budgetMu.Unlock()
	budgetFree.Broadcast()
}

// Workers returns the size of the run budget.
func Workers() int {
	if n := workerCount.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// runItem executes fn holding one slot of the run budget. The slot is
// released on a panic too, so a failed batch leaves the budget balanced.
func runItem(fn func()) {
	budgetMu.Lock()
	for running >= Workers() {
		budgetFree.Wait()
	}
	running++
	budgetMu.Unlock()
	defer func() {
		budgetMu.Lock()
		running--
		budgetMu.Unlock()
		budgetFree.Signal()
	}()
	fn()
}

// RunMany executes every config and returns results in input order. Seeds
// are taken from the configs verbatim, so a RunMany batch reproduces the
// corresponding serial Run loop bit for bit at any worker count.
func RunMany(cfgs []RunConfig) []RunResult {
	return mapIndexed(len(cfgs), func(i int) RunResult {
		return Run(cfgs[i])
	})
}

// insideItem reports whether the calling goroutine is executing a pool item,
// by looking for runItem on its own stack (goroutines carry no identity to
// ask instead). Once per batch, so the walk is not on any hot path.
func insideItem() bool {
	var pcs [64]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		f, more := frames.Next()
		if f.Function == "repro/internal/bench.runItem" {
			return true
		}
		if !more {
			return false
		}
	}
}

// mapIndexed evaluates fn(0..n-1) and collects the values by index. The
// batch fans out over min(Workers(), n) goroutines, a width fixed when it
// starts; items are handed out through an atomic counter, so stragglers
// never idle the batch, and each fn(i) executes holding one slot of the
// process-wide run budget, so any number of concurrent batches together run
// at most Workers() items at a time. The caller must hold no slot itself:
// an item that started a batch would wait on the slot it occupies (forever,
// at a budget of one), so a nested call panics instead. A panic in any item
// is re-raised on the caller's goroutine after the batch drains.
func mapIndexed[T any](n int, fn func(i int) T) []T {
	if insideItem() {
		panic("bench: mapIndexed called from inside a pool item; batches do not nest")
	}
	out := make([]T, n)
	if n == 0 {
		return out
	}
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			runItem(func() { out[i] = fn(i) })
		}
		return out
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, fmt.Sprintf("bench: worker panic: %v", r))
				}
			}()
			for panicked.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runItem(func() { out[i] = fn(i) })
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	return out
}
