package channel

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/sim"
)

// driveModel runs n frames through m at irregular spacings and returns the
// decision stream. The spacings deliberately straddle Gilbert-Elliott
// sojourn boundaries (mean sojourns of a few ms against gaps of 0.1–3 ms).
func driveModel(m ErrorModel, rng *sim.RNG, n int) []bool {
	out := make([]bool, n)
	at := sim.Time(0)
	for i := range out {
		end := at + sim.Time(27*sim.Microsecond)
		out[i] = m.Corrupt(rng, at, end, 8000)
		at = end + sim.Time((1+3*(i%7))*int(sim.Microsecond)*100)
	}
	return out
}

func TestRecorderReplayEquivalence(t *testing.T) {
	spec := "ge:gber=1e-6,bber=5e-2,mgood=4ms,mbad=2ms"
	live := MustParseModel(spec).New()
	tr := &Trace{Name: "ab/i"}
	rec := NewRecorder(MustParseModel(spec).New(), tr)

	want := driveModel(live, sim.NewRNG(3), 400)
	got := driveModel(rec, sim.NewRNG(3), 400)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("Recorder changed the wrapped model's decisions")
	}

	// Replay hands the identical stream back, drawing nothing from its RNG.
	rep := NewReplay(tr, TruncateReplay)
	replayed := driveModel(rep, nil, 400)
	if !reflect.DeepEqual(want, replayed) {
		t.Fatal("Replay diverged from the recorded decisions")
	}
}

func TestReplayPolicies(t *testing.T) {
	tr := &Trace{Name: "x", Recs: []TraceRec{
		{Start: 0, End: 1, Corrupt: true},
		{Start: 1, End: 2, Corrupt: false},
		{Start: 2, End: 3, Corrupt: true},
	}}
	loop := NewReplay(tr, LoopReplay)
	var got []bool
	for i := 0; i < 7; i++ {
		got = append(got, loop.Corrupt(nil, 0, 1, 8))
	}
	want := []bool{true, false, true, true, false, true, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loop replay = %v, want %v", got, want)
	}

	trunc := NewReplay(tr, TruncateReplay)
	got = got[:0]
	for i := 0; i < 5; i++ {
		got = append(got, trunc.Corrupt(nil, 0, 1, 8))
	}
	want = []bool{true, false, true, false, false}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("truncate replay = %v, want %v", got, want)
	}

	// Nil and empty traces replay as perfect channels.
	if NewReplay(nil, LoopReplay).Corrupt(nil, 0, 1, 8) {
		t.Fatal("nil trace corrupted a frame")
	}
}

func TestTraceSetRoundTrip(t *testing.T) {
	set := NewTraceSet()
	rng := sim.NewRNG(11)
	for _, name := range []string{"ab/i", "ab/c", "ba/i", "ba/c"} {
		tr := set.Stream(name)
		at := sim.Time(0)
		for i := 0; i < 300; i++ {
			end := at + sim.Time(13*sim.Microsecond)
			tr.Recs = append(tr.Recs, TraceRec{
				Start: at, End: end, Bits: 100 + i, Corrupt: rng.Bernoulli(0.3),
			})
			at = end + sim.Time(i%5)*sim.Time(sim.Microsecond)
		}
	}
	set.Stream("spans").Mode = SpanTrace
	set.Get("spans").Recs = []TraceRec{
		{Start: 0, End: 100, Corrupt: false},
		{Start: 100, End: 140, Corrupt: true},
	}

	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Names(), set.Names()) {
		t.Fatalf("stream names: %v != %v", back.Names(), set.Names())
	}
	for _, name := range set.Names() {
		a, b := set.Get(name), back.Get(name)
		if a.Mode != b.Mode || !reflect.DeepEqual(a.Recs, b.Recs) {
			t.Fatalf("stream %q did not round-trip", name)
		}
	}

	// File round-trip too (the CLI path).
	path := filepath.Join(t.TempDir(), "rt.trc")
	if err := set.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTraceFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsDisorderedStream(t *testing.T) {
	set := NewTraceSet()
	set.Stream("bad").Recs = []TraceRec{
		{Start: 100, End: 110},
		{Start: 50, End: 60}, // out of wire order
	}
	if err := set.Encode(&bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "not in wire order") {
		t.Fatalf("want wire-order error, got %v", err)
	}
}

func TestReadTraceSetRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "NOTATRACE", "LAMSTRC1", "LAMSTRC9\x00"} {
		if _, err := ReadTraceSet(strings.NewReader(in)); err == nil {
			t.Errorf("ReadTraceSet(%q): want error", in)
		}
	}
}

// TestReadTraceSetUntrustedLengths: a length field is input, not a size to
// allocate. Each 18-byte file below used to panic in makeslice — the first on
// the stream-name length, the second on the record count.
func TestReadTraceSetUntrustedLengths(t *testing.T) {
	for _, in := range []string{
		"LAMSTRC1\x01\xff\xff\xff\xff\xff\xff\xff\xff\x7f",
		"LAMSTRC1\x01\x00\x00\xff\xff\xff\xff\xff\xff\x7f",
	} {
		if len(in) != 18 {
			t.Fatalf("input %q is %d bytes, want 18", in, len(in))
		}
		if _, err := ReadTraceSet(strings.NewReader(in)); err == nil {
			t.Errorf("ReadTraceSet(%q): want error", in)
		}
	}
	// A record whose delta, duration or bit count overflows what it is
	// stored in is refused, not wrapped into a negative time.
	huge := "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01" // 2^64-1
	for _, rec := range []string{
		huge + "\x01\x01\x00",
		"\x01" + huge + "\x01\x00",
		"\x01\x01" + huge + "\x00",
		"\x01\x01\x01\x00" + "\xff\xff\xff\xff\xff\xff\xff\xff\x7f\x01\x01\x00", // second delta: 1 + (2^63-1)
	} {
		in := "LAMSTRC1\x01\x01x\x00\x02" + rec
		if _, err := ReadTraceSet(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("ReadTraceSet(%q) = %v, want an overflow error", in, err)
		}
	}
}

func TestImportTwoColumn(t *testing.T) {
	in := `# measured link trace
0.0 0
1.5 1

2.0 0
3.0 0
`
	tr, err := ImportTwoColumn(strings.NewReader(in), "ext")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Mode != SpanTrace {
		t.Fatal("imported trace should be spans-mode")
	}
	want := []TraceRec{
		{Start: 0, End: sim.Time(1500 * sim.Millisecond), Corrupt: false},
		{Start: sim.Time(1500 * sim.Millisecond), End: sim.Time(2000 * sim.Millisecond), Corrupt: true},
		{Start: sim.Time(2000 * sim.Millisecond), End: sim.Time(3000 * sim.Millisecond), Corrupt: false},
	}
	if !reflect.DeepEqual(tr.Recs, want) {
		t.Fatalf("recs = %+v, want %+v", tr.Recs, want)
	}

	// Span replay corrupts exactly the frames overlapping the errored span.
	rep := NewReplay(tr, TruncateReplay)
	sec := sim.Time(sim.Second)
	if rep.Corrupt(nil, 0, sec, 8) {
		t.Fatal("clean span corrupted a frame")
	}
	if !rep.Corrupt(nil, sec, 2*sec, 8) {
		t.Fatal("frame overlapping the errored span survived")
	}
	if rep.Corrupt(nil, 5*sec, 6*sec, 8) {
		t.Fatal("truncate policy corrupted past the trace end")
	}
	// Loop policy maps time modulo the 3 s trace: t=4.6s lands at 1.6s,
	// inside the errored span.
	looped := NewReplay(tr, LoopReplay)
	if !looped.Corrupt(nil, sim.Time(4600*sim.Millisecond), sim.Time(4700*sim.Millisecond), 8) {
		t.Fatal("loop policy missed the wrapped errored span")
	}

	for _, bad := range []string{
		"",                 // no data
		"1.0 0",            // single line terminates nothing
		"0.0 2\n1.0 0",     // bad flag
		"x 0\n1.0 0",       // bad time
		"1.0 0\n0.5 1",     // time not increasing
		"1.0 0\n1.0 1",     // time not strictly increasing
		"0.0 0 extra\n1 0", // wrong column count
		"-1.0 0\n1.0 0",    // negative time
		// Seconds that are no instant (ISSUE 24): NaN used to open a span at
		// −2562047 h; +Inf and 1e10 s (past int64 nanoseconds) were refused only
		// by what an out-of-range float-to-int conversion happens to yield.
		"NaN 0\n1 1\n2 0\n",
		"0 0\n+Inf 1",
		"0 0\n1e10 1",
	} {
		if _, err := ImportTwoColumn(strings.NewReader(bad), "bad"); err == nil {
			t.Errorf("ImportTwoColumn(%q): want error", bad)
		}
	}
}

// TestGESplitClockDeterminism pins satellite 3 of the trace work: a
// stateful Gilbert-Elliott model's sojourn bookkeeping across frame
// boundaries must make identical decisions whether its pipe lives on one
// scheduler (NewLink) or has its receive side on another shard's clock
// (NewSplitLink + SetRemote + DeliverInbound). The model is only consulted
// at Send time on the transmit clock, so shards-1-vs-8 runs stay
// deterministic with stateful models.
func TestGESplitClockDeterminism(t *testing.T) {
	cfg := PipeConfig{
		RateBps:    1e8,
		Delay:      ConstantDelay(3 * sim.Millisecond),
		IModelSpec: "ge:gber=1e-6,bber=8e-2,mgood=2ms,mbad=1ms",
	}
	const frames = 300

	send := func(sched *sim.Scheduler, p *Pipe) {
		// Irregular spacing so frames straddle sojourn boundaries.
		for i := 0; i < frames; i++ {
			at := sim.Time(i) * sim.Time(400*sim.Microsecond)
			at += sim.Time(i%7) * sim.Time(90*sim.Microsecond)
			seq := uint32(i)
			sched.Schedule(at, func() { p.Send(frame.NewI(seq, uint64(seq), make([]byte, 200))) })
		}
	}
	collect := func(p *Pipe) *[]bool {
		var got []bool
		p.SetHandler(func(_ sim.Time, f *frame.Frame) { got = append(got, f.Corrupted) })
		return &got
	}

	// Reference: both ends on one scheduler.
	localSched := sim.NewScheduler()
	local := NewLink(localSched, cfg, sim.NewRNG(42))
	localGot := collect(local.AtoB)
	send(localSched, local.AtoB)
	localSched.Run()

	// Split: transmit clock and receive clock are different schedulers,
	// frames crossing via SetRemote/DeliverInbound like the shard engine.
	sendSched, recvSched := sim.NewScheduler(), sim.NewScheduler()
	split := NewSplitLink(sendSched, recvSched, cfg, cfg, sim.NewRNG(42))
	splitGot := collect(split.AtoB)
	split.AtoB.SetRemote(func(at sim.Time, f *frame.Frame) {
		recvSched.Schedule(at, func() { split.AtoB.DeliverInbound(at, f) })
	})
	send(sendSched, split.AtoB)
	sendSched.Run()
	recvSched.Run()

	if len(*localGot) != frames || len(*splitGot) != frames {
		t.Fatalf("delivered %d local / %d split, want %d", len(*localGot), len(*splitGot), frames)
	}
	if !reflect.DeepEqual(*localGot, *splitGot) {
		t.Fatal("GE decisions diverged between local and split-clock pipes")
	}
}
