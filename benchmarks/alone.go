package main

import (
	"sort"
	"time"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/crc"
	"repro/internal/frame"
	"repro/internal/live"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file drives single layers alone, with the operation counts of the
// end-to-end run, to bound what the traced run cannot separate from
// outside (wheel dispatch, pipe delivery, codec work inside the live
// endpoints). Every calibration is the median of aloneRounds rounds.

const aloneRounds = 5

// perIter returns the median over aloneRounds of fn's host time per
// iteration, in nanoseconds; fn runs iters iterations per call.
func perIter(iters int, fn func()) float64 {
	ns := make([]float64, aloneRounds)
	for i := range ns {
		start := time.Now()
		fn()
		ns[i] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	sort.Float64s(ns)
	return ns[aloneRounds/2]
}

// holdModel parameterizes the classic event-queue benchmark: a standing
// population of pending events, each of which schedules a successor when
// it fires.
type holdModel struct {
	events     int            // callbacks to execute
	population int            // events pending at any instant
	cancelled  float64        // cancellations per executed event (timer restarts)
	deltas     []sim.Duration // successor delays, cycled
}

// aloneSim runs the timer wheel alone under the hold model and returns
// nanoseconds per executed event. Callbacks do nothing but reschedule.
func aloneSim(h holdModel) float64 {
	if h.events == 0 {
		return 0
	}
	h.population = max(1, h.population)
	return perIter(h.events, func() {
		sched := sim.NewScheduler()
		left := h.events - h.population // successors still to schedule
		next := 0
		delta := func() sim.Duration {
			d := h.deltas[next%len(h.deltas)]
			next++
			return d
		}
		var restart sim.Handle
		var debt float64
		noop := func() {}
		var fire func()
		fire = func() {
			if left > 0 {
				left--
				sched.ScheduleAfterDetached(delta(), fire)
			}
			// The timer-restart pattern: cancel a pending handle-carrying
			// event and arm a fresh one, at the recorded rate.
			for debt += h.cancelled; debt >= 1; debt-- {
				restart.Cancel()
				restart = sched.ScheduleAfter(delta(), noop)
			}
		}
		for i := 0; i < min(h.population, h.events); i++ {
			sched.ScheduleAfterDetached(delta(), fire)
		}
		sched.Run()
		sched.Recycle()
	})
}

// aloneChannel times one pipe alone — Send through the error model to a
// no-op handler, the arrival event included — in nanoseconds per frame.
func aloneChannel(imodel string, rateBps float64, oneWay sim.Duration, frames int) float64 {
	payload := make([]byte, livePayload)
	f := frame.NewI(0, 0, payload)
	const batch = 64
	return perIter(frames, func() {
		sched := sim.NewScheduler()
		p := channel.NewPipe(sched, channel.PipeConfig{
			RateBps: rateBps, Delay: channel.ConstantDelay(oneWay), IModelSpec: imodel,
		}, sim.NewRNG(1))
		p.SetHandler(func(_ sim.Time, g *frame.Frame) {
			if !g.Corrupted { // the pipe recycles corrupted frames itself
				frame.Put(g)
			}
		})
		for sent := 0; sent < frames; sent += batch {
			for i := 0; i < batch && sent+i < frames; i++ {
				f.Seq = uint32(sent + i)
				p.Send(f)
			}
			sched.Run()
		}
		sched.Recycle()
	})
}

// aloneWorkload times the saturating generator and its payload arena into
// a sink that accepts everything, in nanoseconds per datagram.
func aloneWorkload(n, size int) float64 {
	var arena workload.Arena
	return perIter(n, func() {
		sched := sim.NewScheduler()
		gen := workload.NewSaturating(sched, func(arq.Datagram) bool { return true }, sim.Millisecond, size, n)
		gen.UseArena(&arena)
		sched.Run()
		arena.Reset()
	})
}

// aloneCodec times the byte work of the live path with the calls the
// endpoints make — AppendEncode into a scratch buffer, AppendStuffed into a
// fresh one, Deframer.Feed, frame.Decode — on a 1 KiB I-frame and an empty
// checkpoint, plus the two CRCs per KiB. It stores the frame.*, crc.* and
// live.*_per_kib metrics in out and returns the nanoseconds one I-frame
// spends in encode + stuff + deframe + decode.
func aloneCodec(out map[string]summary) float64 {
	const iters = 2000
	payload := make([]byte, livePayload)
	rng := sim.NewRNG(1)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	var sink int
	codec := func(f *frame.Frame, encName, decName string) (raw []byte, enc, dec float64) {
		var scratch []byte
		enc = perIter(iters, func() {
			for i := 0; i < iters; i++ {
				scratch, _ = f.AppendEncode(scratch[:0]) // a well-formed frame always encodes
			}
		})
		raw = append([]byte(nil), scratch...)
		dec = perIter(iters, func() {
			for i := 0; i < iters; i++ {
				g, _, err := frame.Decode(raw)
				if err != nil {
					panic(err) // decoding our own encoding
				}
				sink += len(g.Payload)
			}
		})
		out[encName], out[decName] = exact(enc), exact(dec)
		return raw, enc, dec
	}
	raw, encI, decI := codec(frame.NewI(7, 7, payload), "frame.encode_i1k_ns", "frame.decode_i1k_ns")
	codec(frame.NewCheckpoint(7, 7, nil, false, false), "frame.encode_cp_ns", "frame.decode_cp_ns")

	out["crc.fcs16_ns_per_kib"] = exact(perIter(iters, func() {
		for i := 0; i < iters; i++ {
			sink += int(crc.FCS16(payload))
		}
	}))
	out["crc.sum32_ns_per_kib"] = exact(perIter(iters, func() {
		for i := 0; i < iters; i++ {
			sink += int(crc.Sum32(payload))
		}
	}))

	kib := float64(len(raw)) / 1024
	var stuffed []byte
	stuff := perIter(iters, func() {
		for i := 0; i < iters; i++ {
			stuffed = live.AppendStuffed(nil, raw)
		}
	})
	var d live.Deframer
	deframe := perIter(iters, func() {
		for i := 0; i < iters; i++ {
			// Feed reports only over-long frames; ours is 1 KiB.
			_ = d.Feed(stuffed, func(b []byte) error { sink += len(b); return nil })
		}
	})
	out["live.stuff_ns_per_kib"] = exact(stuff / kib)
	out["live.deframe_ns_per_kib"] = exact(deframe / kib)
	if sink == 0 {
		panic("calibration loops were optimized away")
	}
	return encI + stuff + deframe + decI
}
