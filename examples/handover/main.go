// Handover: the defining constraint of the LAMS environment — links live
// for minutes, then the constellation geometry takes them away. A bulk
// transfer larger than one pass can carry is pushed through a sequence of
// short visibility windows; each pass begins with a retargeting overhead,
// unfinished traffic carries across the gaps, and the application still
// receives every datagram exactly once, in order.
package main

import (
	"fmt"
	"time"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/fec"
	"repro/internal/lamsdlc"
	"repro/internal/session"
	"repro/internal/sim"
)

func main() {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(11)

	// Three short passes with dead gaps between them (compressed versions
	// of real multi-minute windows so the demo prints quickly).
	passes := []session.Pass{
		{Start: 0, End: sim.Time(400 * sim.Millisecond)},
		{Start: sim.Time(1200 * sim.Millisecond), End: sim.Time(1700 * sim.Millisecond)},
		{Start: sim.Time(2500 * sim.Millisecond), End: sim.Time(6 * sim.Second)},
	}

	proto := lamsdlc.Defaults(27 * sim.Millisecond) // ~4,000 km
	proto.CheckpointInterval = 10 * sim.Millisecond

	cfg := session.Config{
		Engine:   proto,
		Retarget: 50 * sim.Millisecond, // pointing acquisition per pass
	}

	mgr := session.New(sched, cfg, passes, func(i int, p session.Pass) *channel.Link {
		// Every pass gets a fresh link; the channel worsens pass to pass
		// to make the carry-over visible.
		ber := []float64{1e-5, 3e-5, 1e-5}[i%3]
		return channel.NewLink(sched, channel.PipeConfig{
			RateBps: 300e6,
			Delay:   channel.ConstantDelay(13340 * sim.Microsecond),
			IModel:  &channel.BSC{BER: ber, Scheme: fec.Hamming74},
			CModel:  &channel.BSC{BER: ber, Scheme: fec.Repetition3},
		}, rng.Split())
	})

	delivered := 0
	var lastID uint64
	ordered := true
	mgr.OnDeliver = func(_ sim.Time, dg arq.Datagram) {
		if delivered > 0 && dg.ID != lastID+1 {
			ordered = false
		}
		lastID = dg.ID
		delivered++
	}

	// A bulk transfer far larger than pass 1 can move.
	const n = 60000
	const payload = 1024
	for i := 0; i < n; i++ {
		mgr.Send(make([]byte, payload))
	}
	fmt.Printf("bulk transfer: %d datagrams (%.0f MB) over three passes\n\n", n, float64(n*payload)/1e6)

	report := func(label string) {
		fmt.Printf("%-22s t=%-7v %s\n", label, sched.Now(), mgr.Summary())
	}
	sched.RunUntil(sim.Time(400 * sim.Millisecond))
	report("pass 1 ended:")
	sched.RunUntil(sim.Time(1700 * sim.Millisecond))
	report("pass 2 ended:")
	sched.RunUntil(sim.Time(6 * sim.Second))
	report("pass 3 ended:")

	fmt.Printf("\ndelivered %d/%d exactly once, in order: %v\n", delivered, n, ordered && delivered == n)
	fmt.Printf("datagrams carried across pass boundaries: %d\n", mgr.Stats.CarriedOver.Value())
	fmt.Printf("cross-pass duplicates suppressed at the destination: %d\n", mgr.Stats.Duplicates.Value())
	_ = time.Second
}
