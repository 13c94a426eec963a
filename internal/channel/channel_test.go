package channel

import (
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/fec"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/orbit"
	"repro/internal/sim"
)

func newTestPipe(t *testing.T, cfg PipeConfig) (*sim.Scheduler, *Pipe, *[]*frame.Frame, *[]sim.Time) {
	t.Helper()
	sched := sim.NewScheduler()
	p := NewPipe(sched, cfg, sim.NewRNG(1))
	var got []*frame.Frame
	var at []sim.Time
	p.SetHandler(func(now sim.Time, f *frame.Frame) {
		if f.Kind.Control() || f.Corrupted {
			// The pipe recycles these after the handler returns; the tests
			// below inspect them post-run, so keep a private copy.
			f = f.Clone()
		}
		got = append(got, f)
		at = append(at, now)
	})
	return sched, p, &got, &at
}

func iframe(seq uint32, payload int) *frame.Frame {
	return frame.NewI(seq, uint64(seq), make([]byte, payload))
}

func TestPipeDeliversWithDelayAndTxTime(t *testing.T) {
	cfg := PipeConfig{
		RateBps: 1e6, // 1 Mbps: 1 bit per microsecond
		Delay:   ConstantDelay(10 * sim.Millisecond),
	}
	sched, p, got, at := newTestPipe(t, cfg)
	f := iframe(1, 1000) // wire length 1000+25 bytes => 8200 bits => 8.2ms
	wantTx := p.TxTime(f)
	p.Send(f)
	sched.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d frames", len(*got))
	}
	want := sim.Time(0).Add(wantTx).Add(10 * sim.Millisecond)
	if (*at)[0] != want {
		t.Fatalf("arrival at %v, want %v", (*at)[0], want)
	}
}

func TestPipeSerializesBackToBack(t *testing.T) {
	cfg := PipeConfig{RateBps: 8e6, Delay: ConstantDelay(sim.Millisecond)}
	sched, p, got, at := newTestPipe(t, cfg)
	f := iframe(1, 979) // 979+21 header+CRC = 1000 bytes = 8000 bits = 1ms at 8 Mbps
	tx := p.TxTime(f)
	if tx != sim.Millisecond {
		t.Fatalf("tx time = %v, want 1ms", tx)
	}
	for i := 0; i < 3; i++ {
		p.Send(iframe(uint32(i), 979))
	}
	sched.Run()
	if len(*got) != 3 {
		t.Fatalf("delivered %d", len(*got))
	}
	for i, want := range []sim.Time{
		sim.Time(2 * sim.Millisecond),
		sim.Time(3 * sim.Millisecond),
		sim.Time(4 * sim.Millisecond),
	} {
		if (*at)[i] != want {
			t.Fatalf("arrival %d at %v, want %v", i, (*at)[i], want)
		}
	}
}

func TestPipeInfiniteRate(t *testing.T) {
	sched, p, got, at := newTestPipe(t, PipeConfig{Delay: ConstantDelay(5 * sim.Millisecond)})
	p.Send(iframe(1, 100000))
	sched.Run()
	if len(*got) != 1 || (*at)[0] != sim.Time(5*sim.Millisecond) {
		t.Fatalf("infinite-rate delivery wrong: %v", *at)
	}
	if p.TxTimeBits(1e9) != 0 {
		t.Fatal("infinite rate should have zero tx time")
	}
}

func TestPipeCopiesFrameHeader(t *testing.T) {
	// Send takes a shallow copy: header mutations after Send (HDLC-style
	// renumbering/re-flagging) must not affect the frame in flight. Payload
	// bytes alias by contract — the sender must not mutate them.
	sched, p, got, _ := newTestPipe(t, PipeConfig{})
	f := iframe(1, 10)
	p.Send(f)
	f.Seq = 999
	f.Corrupted = true
	sched.Run()
	if (*got)[0].Seq != 1 || (*got)[0].Corrupted {
		t.Fatal("in-flight frame shares header state with sender's copy")
	}
	if &(*got)[0].Payload[0] != &f.Payload[0] {
		t.Fatal("payload should alias the sender's slice (no deep copy on the hot path)")
	}
}

func TestPipeFIFOWithShrinkingDelay(t *testing.T) {
	// Delay drops sharply between two sends; the second frame must still
	// arrive after the first.
	delays := []sim.Duration{20 * sim.Millisecond, sim.Millisecond}
	i := 0
	cfg := PipeConfig{
		RateBps: 1e9,
		Delay: func(sim.Time) sim.Duration {
			d := delays[i%len(delays)]
			i++
			return d
		},
	}
	sched, p, got, at := newTestPipe(t, cfg)
	p.Send(iframe(1, 100))
	p.Send(iframe(2, 100))
	sched.Run()
	if len(*got) != 2 {
		t.Fatalf("delivered %d", len(*got))
	}
	if !(*at)[0].Before((*at)[1]) {
		t.Fatalf("FIFO violated: %v then %v", (*at)[0], (*at)[1])
	}
	if (*got)[0].Seq != 1 || (*got)[1].Seq != 2 {
		t.Fatal("order swapped")
	}
}

func TestCorruptionMarksDetectably(t *testing.T) {
	reg := metrics.New()
	cfg := PipeConfig{IModel: FixedProb{1}, CModel: Perfect{}, Metrics: reg}
	sched, p, got, _ := newTestPipe(t, cfg)
	p.Send(iframe(1, 10))
	p.Send(frame.NewCheckpoint(1, 1, nil, false, false))
	sched.Run()
	if len(*got) != 2 {
		t.Fatalf("delivered %d", len(*got))
	}
	if !(*got)[0].Corrupted {
		t.Fatal("I-frame should be corrupted (IModel=always)")
	}
	if (*got)[1].Corrupted {
		t.Fatal("C-frame should be clean (CModel=perfect)")
	}
	if n := reg.Snapshot().Counter("channel_frames_corrupted_total"); n != 1 {
		t.Fatalf("corrupted count = %d", n)
	}
	if iFrames := p.Stats.FramesSent.Value() - p.Stats.CFrames.Value(); iFrames != 1 || p.Stats.CFrames.Value() != 1 {
		t.Fatal("frame kind counters wrong")
	}
}

func TestFixedProbRate(t *testing.T) {
	sched := sim.NewScheduler()
	p := NewPipe(sched, PipeConfig{IModel: FixedProb{0.3}}, sim.NewRNG(7))
	corrupted := 0
	p.SetHandler(func(_ sim.Time, f *frame.Frame) {
		if f.Corrupted {
			corrupted++
		}
	})
	const n = 20000
	for i := 0; i < n; i++ {
		p.Send(iframe(uint32(i), 10))
	}
	sched.Run()
	rate := float64(corrupted) / n
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("corruption rate = %v, want ~0.3", rate)
	}
}

func TestBSCMatchesFECAlgebra(t *testing.T) {
	sched := sim.NewScheduler()
	ber := 1e-4
	p := NewPipe(sched, PipeConfig{IModel: &BSC{BER: ber}}, sim.NewRNG(8))
	corrupted := 0
	p.SetHandler(func(_ sim.Time, f *frame.Frame) {
		if f.Corrupted {
			corrupted++
		}
	})
	const n = 20000
	f := iframe(0, 1000)
	for i := 0; i < n; i++ {
		p.Send(f)
	}
	sched.Run()
	want := fec.FrameErrorProbUncoded(ber, f.Bits())
	rate := float64(corrupted) / n
	if math.Abs(rate-want) > 0.02 {
		t.Fatalf("corruption rate = %v, want ~%v", rate, want)
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	sched := sim.NewScheduler()
	ge := NewGilbertElliott(0, 1, 10*sim.Millisecond, 2*sim.Millisecond, fec.Scheme{})
	p := NewPipe(sched, PipeConfig{RateBps: 8e6, IModel: ge}, sim.NewRNG(9))
	var outcomes []bool
	p.SetHandler(func(_ sim.Time, f *frame.Frame) { outcomes = append(outcomes, f.Corrupted) })
	for i := 0; i < 5000; i++ {
		p.Send(iframe(uint32(i), 95)) // ~1000 bits ~ 0.125ms each
	}
	sched.Run()
	// Expect corruption clustered in runs, with overall fraction near
	// MeanBad/(MeanGood+MeanBad) = 1/6.
	var bad, runs int
	prev := false
	for _, c := range outcomes {
		if c {
			bad++
			if !prev {
				runs++
			}
		}
		prev = c
	}
	frac := float64(bad) / float64(len(outcomes))
	if frac < 0.08 || frac > 0.30 {
		t.Fatalf("bad fraction = %v, want ~1/6", frac)
	}
	if runs == 0 || bad/runs < 3 {
		t.Fatalf("bursts not clustered: %d bad in %d runs", bad, runs)
	}
	if ge.MeanBurstLen() != 2*sim.Millisecond {
		t.Fatal("MeanBurstLen accessor")
	}
}

func TestBurstTrainDeterministic(t *testing.T) {
	sched := sim.NewScheduler()
	bt := &BurstTrain{Period: 10 * sim.Millisecond, BurstLen: 2 * sim.Millisecond}
	p := NewPipe(sched, PipeConfig{RateBps: 8e6, IModel: bt}, sim.NewRNG(10))
	var corrupted []bool
	var arrivals []sim.Time
	p.SetHandler(func(now sim.Time, f *frame.Frame) {
		corrupted = append(corrupted, f.Corrupted)
		arrivals = append(arrivals, now)
	})
	// One 1ms frame per 1ms, for 30ms: frames overlapping [0,2), [10,12),
	// [20,22) ms burst windows are corrupted.
	f := iframe(0, 979) // 1000 bytes => 1ms at 8Mbps
	for i := 0; i < 30; i++ {
		p.Send(f)
	}
	sched.Run()
	for i, c := range corrupted {
		// Frame i occupies [i, i+1) ms on the wire.
		start := sim.Duration(i) * sim.Millisecond
		end := start + sim.Millisecond
		inBurst := false
		for _, b := range []sim.Duration{0, 10 * sim.Millisecond, 20 * sim.Millisecond} {
			if end > b && start < b+2*sim.Millisecond {
				inBurst = true
			}
		}
		if c != inBurst {
			t.Fatalf("frame %d corrupted=%v, want %v", i, c, inBurst)
		}
	}
}

func TestLinkFailureDropsFrames(t *testing.T) {
	sched := sim.NewScheduler()
	link := NewLink(sched, PipeConfig{RateBps: 1e9, Delay: ConstantDelay(10 * sim.Millisecond)}, sim.NewRNG(11))
	var delivered int
	link.AtoB.SetHandler(func(sim.Time, *frame.Frame) { delivered++ })
	link.BtoA.SetHandler(func(sim.Time, *frame.Frame) { delivered++ })

	link.AtoB.Send(iframe(1, 10)) // in flight when link dies
	sched.RunUntil(sim.Time(sim.Millisecond))
	link.Fail()
	if !link.Down() {
		t.Fatal("link should be down")
	}
	link.AtoB.Send(iframe(2, 10)) // sent while down
	sched.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d frames across dead link", delivered)
	}
	if link.AtoB.Stats.FramesLost.Value() != 2 {
		t.Fatalf("lost = %d, want 2", link.AtoB.Stats.FramesLost.Value())
	}
	link.Restore()
	link.AtoB.Send(iframe(3, 10))
	sched.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d after restore, want 1", delivered)
	}
}

func TestNoHandlerCountsLost(t *testing.T) {
	sched := sim.NewScheduler()
	p := NewPipe(sched, PipeConfig{}, sim.NewRNG(12))
	p.Send(iframe(1, 10))
	sched.Run()
	if p.Stats.FramesLost.Value() != 1 {
		t.Fatal("frame without handler should count lost")
	}
	if p.Stats.FramesDelivered.Value() != 0 {
		t.Fatal("no delivery expected")
	}
}

func TestOrbitDelayTracksGeometry(t *testing.T) {
	l := orbit.InPlanePair(1000e3, 30)
	fn := OrbitDelay(l, 0)
	want := orbit.PropagationDelay(l.RangeM(0))
	if got := fn(0); got != want {
		t.Fatalf("delay = %v, want %v", got, want)
	}
	// Delay magnitude sanity: ~3800 km chord => ~12.7 ms.
	if got := fn(0); got < 10*time.Millisecond || got > 15*time.Millisecond {
		t.Fatalf("unexpected magnitude %v", got)
	}
}

func TestNewAsymmetricLink(t *testing.T) {
	sched := sim.NewScheduler()
	link := NewAsymmetricLink(sched,
		PipeConfig{IModel: FixedProb{1}},
		PipeConfig{},
		sim.NewRNG(13))
	var abCorrupt, baCorrupt bool
	link.AtoB.SetHandler(func(_ sim.Time, f *frame.Frame) { abCorrupt = f.Corrupted })
	link.BtoA.SetHandler(func(_ sim.Time, f *frame.Frame) { baCorrupt = f.Corrupted })
	link.AtoB.Send(iframe(1, 1))
	link.BtoA.Send(iframe(2, 1))
	sched.Run()
	if !abCorrupt || baCorrupt {
		t.Fatal("asymmetric configs not applied per direction")
	}
}

func TestPipePanicsOnNilArgs(t *testing.T) {
	sched := sim.NewScheduler()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("nil sched", func() { NewPipe(nil, PipeConfig{}, sim.NewRNG(1)) })
	mustPanic("nil rng", func() { NewPipe(sched, PipeConfig{}, nil) })
	mustPanic("bad GE", func() { NewGilbertElliott(0, 1, 0, 1, fec.Scheme{}) })
	mustPanic("bad train", func() {
		(&BurstTrain{}).Corrupt(sim.NewRNG(1), 0, 1, 1)
	})
}

func TestErrorModelStrings(t *testing.T) {
	for _, s := range []string{
		FixedProb{0.5}.String(),
		(&BSC{BER: 1e-6}).String(),
		NewGilbertElliott(0, 1, 1, 1, fec.Scheme{}).String(),
		(&BurstTrain{Period: 1, BurstLen: 1}).String(),
	} {
		if s == "" {
			t.Fatal("empty model description")
		}
	}
}

func BenchmarkPipeSendDeliver(b *testing.B) {
	sched := sim.NewScheduler()
	// A live registry keeps the benchmark honest about the instrumented
	// hot path: counters and the queue histogram must not allocate.
	p := NewPipe(sched, PipeConfig{
		RateBps: 1e9,
		Delay:   ConstantDelay(10 * sim.Millisecond),
		IModel:  &BSC{BER: 1e-6},
		Metrics: metrics.New(),
	}, sim.NewRNG(1))
	p.SetHandler(func(sim.Time, *frame.Frame) {})
	f := iframe(1, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Send(f)
		if i%1024 == 0 {
			sched.Run()
		}
	}
	sched.Run()
}

func TestFECExpansionScalesTxTime(t *testing.T) {
	sched := sim.NewScheduler()
	p := NewPipe(sched, PipeConfig{
		RateBps:    8e6,
		IExpansion: 1.75, // Hamming(7,4)
		CExpansion: 3,    // repetition-3
	}, sim.NewRNG(20))
	ifr := iframe(1, 979) // 1000 raw bytes = 1ms at 8 Mbps
	if got := p.TxTime(ifr); got != 1750*sim.Microsecond {
		t.Fatalf("I-frame tx = %v, want 1.75ms", got)
	}
	cp := frame.NewCheckpoint(1, 1, nil, false, false) // 20 bytes = 20us raw
	if got := p.TxTime(cp); got != 60*sim.Microsecond {
		t.Fatalf("C-frame tx = %v, want 60us", got)
	}
	// Zero expansion means none.
	q := NewPipe(sched, PipeConfig{RateBps: 8e6}, sim.NewRNG(21))
	if got := q.TxTime(ifr); got != sim.Millisecond {
		t.Fatalf("unexpanded tx = %v", got)
	}
}

func TestPipeFIFOProperty(t *testing.T) {
	// Property: for any sequence of sends with any (nonnegative, varying)
	// delay function, arrivals preserve send order.
	f := func(delaysRaw []uint16, seed uint64) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		delays := make([]sim.Duration, len(delaysRaw))
		for i, d := range delaysRaw {
			delays[i] = sim.Duration(d) * sim.Microsecond
		}
		i := 0
		sched := sim.NewScheduler()
		p := NewPipe(sched, PipeConfig{
			RateBps: 1e9,
			Delay: func(sim.Time) sim.Duration {
				d := delays[i%len(delays)]
				i++
				return d
			},
		}, sim.NewRNG(seed))
		var seqs []uint32
		p.SetHandler(func(_ sim.Time, fr *frame.Frame) { seqs = append(seqs, fr.Seq) })
		n := len(delays)
		if n > 64 {
			n = 64
		}
		for s := 0; s < n; s++ {
			p.Send(iframe(uint32(s), 32))
		}
		sched.Run()
		if len(seqs) != n {
			return false
		}
		for s := 1; s < len(seqs); s++ {
			if seqs[s] <= seqs[s-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSendHomesTheInFlightCopy pins where a sent frame comes from and goes
// back to: the free list of the pipe's scheduler, set after the struct copy —
// so forwarding a frame that is itself homed elsewhere (a relay re-sending
// the frame it was handed) cannot send the copy to the wrong list — and
// reused by the next Send instead of the collector-timed package pool.
func TestSendHomesTheInFlightCopy(t *testing.T) {
	a, b := sim.NewScheduler(), sim.NewScheduler()
	cfg := PipeConfig{RateBps: 1e6, Delay: ConstantDelay(sim.Millisecond)}
	pa, pb := NewPipe(a, cfg, sim.NewRNG(1)), NewPipe(b, cfg, sim.NewRNG(2))
	var first, relayed *frame.Frame
	pa.SetHandler(func(_ sim.Time, f *frame.Frame) {
		first = f
		pb.Send(f) // f is homed on a's list; the copy must not be
		frame.Put(f)
	})
	pb.SetHandler(func(_ sim.Time, f *frame.Frame) {
		relayed = f
		frame.Put(f)
	})
	pa.Send(iframe(1, 10))
	a.Run()
	b.Run()
	if first == nil || relayed == nil || first == relayed {
		t.Fatal("the frame was not relayed through both pipes")
	}
	if got := Frames(a).Get(false); got != first {
		t.Fatal("the first hop's frame did not return to its scheduler's list")
	}
	if got := Frames(b).Get(false); got != relayed {
		t.Fatal("the relayed copy did not return to the relaying scheduler's list")
	}
	Frames(a).Adopt(first)
	frame.Put(first)
	allocs := testing.AllocsPerRun(100, func() {
		pa.Send(relayed) // relayed is ours now (popped above): any frame will do
		a.Run()
		b.Run()
	})
	if allocs != 0 {
		t.Fatalf("a warm send-relay-deliver cycle allocates %.1f/op, want 0", allocs)
	}
}

// TestPipeSizeClass pins the layout: a constellation builds 8,192 pipes, and
// the free-list pointer must not push each into the next size class.
func TestPipeSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Pipe{}); size > 320 {
		t.Fatalf("Pipe is %d bytes, want at most 320", size)
	}
}
