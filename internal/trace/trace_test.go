package trace

import (
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/sim"
)

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Add(Event{At: sim.Time(i)})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("kept %d", len(evs))
	}
	for i, want := range []sim.Time{2, 3, 4} {
		if evs[i].At != want {
			t.Fatalf("events = %v", evs)
		}
	}
}

func TestRingUnderCapacity(t *testing.T) {
	r := NewRecorder(10)
	r.Add(Event{At: 1})
	r.Add(Event{At: 2})
	evs := r.Events()
	if len(evs) != 2 || evs[0].At != 1 || evs[1].At != 2 {
		t.Fatalf("events = %v", evs)
	}
}

func TestZeroAndNegativeCapacity(t *testing.T) {
	var zero Recorder
	zero.Add(Event{At: 1})
	if len(zero.Events()) != 0 {
		t.Fatal("zero recorder retained events")
	}
	neg := NewRecorder(-5)
	neg.Add(Event{At: 1})
	if len(neg.Events()) != 0 {
		t.Fatal("negative capacity retained events")
	}
}

func TestEventAndKindStrings(t *testing.T) {
	e := Event{At: sim.Time(sim.Millisecond), Kind: KindRx, Where: "A->B", Frame: "I seq=1"}
	s := e.String()
	for _, want := range []string{"RX", "A->B", "I seq=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind string")
	}
}

func TestDump(t *testing.T) {
	r := NewRecorder(4)
	tap := r.ChannelTap("B->A")
	tap(sim.Time(5), "tx", frame.NewRequestNAK(9))
	tap(sim.Time(6), "rx", nil)
	d := r.Dump()
	if strings.Count(d, "\n") != 2 || !strings.Contains(d, "REQNAK") || !strings.Contains(d, "B->A") {
		t.Fatalf("dump = %q", d)
	}
	if evs := r.Events(); evs[1].Frame != "" || evs[1].Info != nil {
		t.Fatalf("an event without a frame summarizes one: %+v", evs[1])
	}
}

func TestChannelTapIntegration(t *testing.T) {
	r := NewRecorder(64)
	sched := sim.NewScheduler()
	p := channel.NewPipe(sched, channel.PipeConfig{
		IModel: channel.FixedProb{P: 1}, // corrupt everything
		Tap:    r.ChannelTap("A->B"),
	}, sim.NewRNG(1))
	p.SetHandler(func(sim.Time, *frame.Frame) {})
	p.Send(frame.NewI(1, 1, []byte("x")))
	sched.Run()
	var haveTx, haveCorrupt, haveRx bool
	for _, e := range r.Events() {
		switch e.Kind {
		case KindTx:
			haveTx = true
		case KindCorrupt:
			haveCorrupt = true
		case KindRx:
			haveRx = true
		}
		if e.Where != "A->B" {
			t.Fatalf("where = %q", e.Where)
		}
	}
	if !haveTx || !haveCorrupt || !haveRx {
		t.Fatalf("missing events: tx=%v corrupt=%v rx=%v\n%s", haveTx, haveCorrupt, haveRx, r.Dump())
	}
}

func TestChannelTapDropOnDeadLink(t *testing.T) {
	r := NewRecorder(16)
	sched := sim.NewScheduler()
	p := channel.NewPipe(sched, channel.PipeConfig{Tap: r.ChannelTap("x")}, sim.NewRNG(2))
	p.SetDown(true)
	p.Send(frame.NewI(1, 1, nil))
	sched.Run()
	found := false
	for _, e := range r.Events() {
		if e.Kind == KindDrop {
			found = true
		}
	}
	if !found {
		t.Fatalf("no drop event:\n%s", r.Dump())
	}
}
