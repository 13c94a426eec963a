package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/arq"
	"repro/internal/lamsdlc"
	"repro/internal/live"
	"repro/internal/sim"
)

const (
	livePayload     = 1024
	liveOutstanding = 64    // closed-loop window
	liveOpenRate    = 10000 // open-loop offered datagrams per second
	liveTimeout     = 60 * time.Second
)

// liveWorkload drives two live.Endpoints (LAMS-DLC) over one in-process
// net.Pipe — real codec, CRC, byte stuffing, deframer and wall-clock Driver,
// but no real link. A repetition is a closed loop: n datagrams with at most
// 64 undelivered. The traced part adds an open loop at a fixed rate, each
// datagram timed from the instant it was due.
type liveWorkload struct {
	seed   uint64
	n      int
	tx, rx *live.Endpoint
	// payloads[i] is datagram i's 1 KiB pattern, a seeded random stream so
	// the stuffing escape rate is that of arbitrary data.
	payloads [][]byte

	mu        sync.Mutex
	base      uint64 // ID of the current phase's first datagram
	got       []uint8
	remaining int
	bad       int           // wrong payload, duplicate or foreign ID
	tokens    chan struct{} // closed-loop window; nil in the open loop
	done      chan struct{}
	onFirst   func(idx int) // open-loop delivery hook
	failure   string
	closing   bool // finish has begun: the transport errors of Close are expected
}

func newLiveLoopback(seed uint64, scale float64) *liveWorkload {
	return &liveWorkload{seed: seed, n: scaled(20_000, scale)}
}

func (w *liveWorkload) setup() {
	a, b := net.Pipe()
	cfg := lamsdlc.Defaults(2 * sim.Millisecond)
	// 20 ms checkpoints leave the sender 90 ms of checkpoint silence before
	// Enforced Recovery, so a sandbox scheduling stall is not a link failure.
	cfg.CheckpointInterval = 20 * sim.Millisecond
	// Neither wire pacing (10 Gb/s) nor the receiver's t_proc may bind, or
	// ops_per_s would measure a configured cap instead of the host path.
	cfg.ProcTime = sim.Microsecond
	// The zero-duplication variant: a stall longer than the resolving
	// period makes the sender retransmit; the receiver must absorb that.
	cfg.DedupWindow = cfg.DedupHorizon()
	onError := func(err error) { w.fail("transport: " + err.Error()) }
	w.tx = live.NewEndpoint(a, live.EndpointConfig{
		Config: cfg, RateBps: 10e9, Speed: 1, SendSide: true, OnError: onError,
		OnFailure: func(_ sim.Time, reason string) { w.fail("link failure declared: " + reason) },
	})
	w.rx = live.NewEndpoint(b, live.EndpointConfig{
		Config: cfg, RateBps: 10e9, Speed: 1, RecvSide: true, OnError: onError, Deliver: w.deliver,
	})
	slab := make([]byte, w.n*livePayload)
	w.payloads = make([][]byte, w.n)
	for i := range w.payloads {
		w.payloads[i] = slab[i*livePayload : (i+1)*livePayload : (i+1)*livePayload]
	}
	w.got = make([]uint8, w.n)
	w.closedLoop(0, nil)
}

func (w *liveWorkload) fail(msg string) {
	w.mu.Lock()
	if w.failure == "" && !w.closing {
		w.failure = msg
	}
	w.mu.Unlock()
}

// deliver runs on the receiving endpoint's driver goroutine.
func (w *liveWorkload) deliver(_ sim.Time, dg arq.Datagram, _ uint32) {
	w.mu.Lock()
	defer w.mu.Unlock()
	idx := int(dg.ID - w.base)
	if dg.ID < w.base || idx >= len(w.got) || w.got[idx] > 0 ||
		!bytes.Equal(dg.Payload, w.payloads[idx%len(w.payloads)]) {
		w.bad++
		return
	}
	w.got[idx] = 1
	if w.onFirst != nil {
		w.onFirst(idx)
	}
	if w.tokens != nil {
		w.tokens <- struct{}{} // capacity 64 and at most 64 taken: never blocks
	}
	if w.remaining--; w.remaining == 0 {
		close(w.done)
	}
}

// begin arms the delivery bookkeeping for a phase of total datagrams.
func (w *liveWorkload) begin(total int, closed bool, onFirst func(int)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.base += uint64(len(w.got))
	if cap(w.got) < total {
		w.got = make([]uint8, total)
	}
	w.got = w.got[:total]
	clear(w.got)
	w.remaining, w.bad, w.onFirst = total, 0, onFirst
	w.done = make(chan struct{})
	w.tokens = nil
	if closed {
		w.tokens = make(chan struct{}, liveOutstanding)
		for i := 0; i < liveOutstanding; i++ {
			w.tokens <- struct{}{}
		}
	}
}

// fill writes the payload patterns of repetition r.
func (w *liveWorkload) fill(r int) {
	rng := sim.NewRNG(sim.DeriveSeed(w.seed, r))
	for _, p := range w.payloads {
		for j := 0; j < len(p); j += 8 {
			v := rng.Uint64()
			for k := 0; k < 8; k++ {
				p[j+k] = byte(v >> (8 * k))
			}
		}
	}
}

// quiesce waits until the sender holds nothing, so that no frame of the
// finished phase can still reference a payload about to be rewritten.
func (w *liveWorkload) quiesce() {
	deadline := time.Now().Add(liveTimeout)
	for time.Now().Before(deadline) {
		held := 0
		w.tx.Driver.Call(func() { held = w.tx.Sender.Outstanding() })
		if held == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// liveCounts is the endpoints' protocol counters at one instant.
type liveCounts struct{ frames, retx uint64 }

func (w *liveWorkload) counters() liveCounts {
	var c liveCounts
	w.tx.Driver.Call(func() {
		m := w.tx.Metrics
		c.retx = m.Retransmissions.Value()
		c.frames = m.FirstTx.Value() + c.retx + m.ControlSent.Value()
	})
	w.rx.Driver.Call(func() { c.frames += w.rx.Metrics.ControlSent.Value() })
	return c
}

// closedLoop offers the n datagrams of repetition r with at most 64
// undelivered, from first enqueue to last delivery. tr, when non-nil,
// records a span around every Endpoint.Enqueue and, after the fact, one
// asynchronous span per datagram from its enqueue to its delivery.
func (w *liveWorkload) closedLoop(r int, tr *tracer) repResult {
	w.quiesce()
	w.fill(r)
	var sentAt, gotAt []int64
	var onFirst func(int)
	if tr != nil {
		sentAt, gotAt = make([]int64, w.n), make([]int64, w.n)
		onFirst = func(idx int) { gotAt[idx] = int64(time.Since(tr.epoch)) }
	}
	w.begin(w.n, true, onFirst)
	before := w.counters()
	refused := 0
	body := func() {
		enq := tr.id("live.enqueue")
		for i := 0; i < w.n; i++ {
			<-w.tokens
			dg := arq.Datagram{ID: w.base + uint64(i), Payload: w.payloads[i]}
			var s int32
			if tr != nil {
				s = tr.begin(enq)
				sentAt[i] = tr.spans[s].start
			}
			ok := w.tx.Enqueue(dg)
			if tr != nil {
				tr.end(s)
			}
			if !ok {
				refused++
				w.tokens <- struct{}{}
			}
		}
		if refused < w.n {
			select {
			case <-w.done:
			case <-time.After(liveTimeout):
			}
		}
	}
	var m measured
	if tr == nil {
		m = measure(body)
	} else {
		tr.root("rep", func() {
			m = measure(body)
			w.mu.Lock()
			for i, at := range gotAt {
				if at > 0 {
					tr.async("live.op", sentAt[i], at)
				}
			}
			w.mu.Unlock()
		})
	}
	after := w.counters()

	w.mu.Lock()
	defer w.mu.Unlock()
	res := repResult{attempted: w.n, failed: min(w.n, w.remaining+w.bad), m: m}
	if res.failed > 0 {
		res.notes = append(res.notes, fmt.Sprintf("rep %d: %d undelivered (%d refused), %d wrong/duplicate; %s",
			r, w.remaining, refused, w.bad, w.failure))
	}
	ops := float64(max(w.n-res.failed, 1))
	res.timings = map[string]float64{
		"live.ns_per_op":     float64(m.dur.Nanoseconds()) / ops,
		"live.frames_per_op": float64(after.frames-before.frames) / ops,
		"live.retx_per_op":   float64(after.retx-before.retx) / ops,
	}
	return res
}

func (w *liveWorkload) rep(r int) repResult { return w.closedLoop(r, nil) }

// openLoop offers rate datagrams per second for d, whatever the deliveries
// do, and times each datagram from the instant it was DUE, so a
// stall charges its wait to every datagram queued behind it. It returns the
// delays and the generator's lateness, both in milliseconds and ascending.
func (w *liveWorkload) openLoop(d time.Duration, rate int) (delayMS, lagMS []float64, failed int) {
	w.quiesce()
	total := int(d.Seconds() * float64(rate))
	interval := time.Second / time.Duration(rate)
	delayMS, lagMS = make([]float64, total), make([]float64, total)
	var start time.Time
	w.begin(total, false, func(idx int) {
		delayMS[idx] = float64(time.Since(start)-time.Duration(idx)*interval) / 1e6
	})
	start = time.Now()
	for i := 0; i < total; i++ {
		due := time.Duration(i) * interval
		// time.Sleep overshoots by up to a millisecond, ten intervals; yield
		// instead, so the generator is late only when it cannot get a core.
		for time.Since(start) < due {
			runtime.Gosched()
		}
		lagMS[i] = float64(time.Since(start)-due) / 1e6
		w.tx.Enqueue(arq.Datagram{ID: w.base + uint64(i), Payload: w.payloads[i%len(w.payloads)]})
	}
	select {
	case <-w.done:
	case <-time.After(liveTimeout):
	}
	w.mu.Lock()
	failed = w.remaining + w.bad
	w.mu.Unlock()
	sort.Float64s(delayMS)
	sort.Float64s(lagMS)
	return delayMS, lagMS, failed
}

func (w *liveWorkload) finish() []string {
	w.mu.Lock()
	w.closing = true
	w.mu.Unlock()
	w.tx.Close()
	w.rx.Close()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failure != "" {
		return []string{w.failure}
	}
	return nil
}

func (w *liveWorkload) layers(tr *tracer, budget time.Duration) map[string]summary {
	out := map[string]summary{}
	var untraced, traced []float64
	deadline := time.Now().Add(budget / 4)
	for r := 0; r < 2 || time.Now().Before(deadline); r++ {
		untraced = append(untraced, w.closedLoop(r, nil).m.dur.Seconds())
		traced = append(traced, w.closedLoop(r, tr).m.dur.Seconds())
	}
	u := summarize(untraced)
	out["trace.overhead_share"] = exact((summarize(traced).Median - u.Median) / u.Median)
	out["live.enqueue_call_us"] = exact(tr.meanSelfNS("live.enqueue") / 1e3)

	// Five sixths of the budget: 5 s at the default, so 500 samples lie
	// beyond the reported p99.
	delays, lags, failed := w.openLoop(budget*5/6, liveOpenRate)
	if failed > 0 {
		w.fail(fmt.Sprintf("open loop: %d datagrams undelivered, duplicated or damaged", failed))
	}
	out["live_delay_p50_ms"] = exact(quantile(delays, 0.50))
	out["live_delay_p99_ms"] = exact(quantile(delays, 0.99))
	out["live.generator_lag_p99_ms"] = exact(quantile(lags, 0.99))

	codec := aloneCodec(out)
	nsPerOp := u.Median * 1e9 / float64(w.n)
	out["live.codec_share"] = exact(codec / nsPerOp)
	return out
}
