package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/sim"
)

// TestTapCopiesFrameAtAddTime is the regression test for the frame-pooling
// ownership contract: the channel layer recycles control and corrupted
// frames the instant the handler returns, so a tap that retained the *Frame
// (or any of its slices) would see its history rewritten by the next Send.
// The tap must copy everything it keeps at Add time.
func TestTapCopiesFrameAtAddTime(t *testing.T) {
	r := NewRecorder(8)
	tap := r.ChannelTap("A->B")
	f := frame.NewCheckpoint(7, 41, []uint32{1, 2, 3}, true, false)
	tap(sim.Time(5), "rx", f)

	// Poison: overwrite every field, exactly as frame.Put + frame.Get reuse
	// by an unrelated transmission would.
	*f = frame.Frame{Kind: frame.KindI, Seq: 9999, DatagramID: 4242, Payload: []byte("poison")}

	e := r.Events()[0]
	if e.Info == nil {
		t.Fatal("tap recorded no structured frame info")
	}
	want := FrameInfo{Kind: "CP", Serial: 7, Ack: 41, NAKs: 3, Bits: e.Info.Bits, StopGo: true}
	if *e.Info != want {
		t.Fatalf("recorded info %+v, want %+v (poisoned frame leaked through)", *e.Info, want)
	}
	if !strings.Contains(e.Frame, "CP") || strings.Contains(e.Frame, "9999") {
		t.Fatalf("recorded frame string %q reflects the poisoned frame", e.Frame)
	}
}

// TestTapSurvivesPoolRecycling drives the real pipeline: a control frame
// through a pipe (whose in-flight copy is pooled and recycled after the
// handler returns), then poisons recycled pool objects and checks the
// recorded events are bit-identical.
func TestTapSurvivesPoolRecycling(t *testing.T) {
	r := NewRecorder(16)
	sched := sim.NewScheduler()
	p := channel.NewPipe(sched, channel.PipeConfig{Tap: r.ChannelTap("x")}, sim.NewRNG(3))
	p.SetHandler(func(sim.Time, *frame.Frame) {})
	p.Send(frame.NewCheckpoint(9, 100, []uint32{5}, false, true))
	sched.Run() // delivery fires; the pipe recycles its in-flight copy

	before := r.Events()
	// Drain the pool and poison everything in it: one of these objects is
	// the recycled in-flight copy the tap saw.
	var drained []*frame.Frame
	for i := 0; i < 64; i++ {
		g := frame.Get()
		*g = frame.Frame{Kind: frame.KindI, Seq: 0xBAD, DatagramID: 0xBAD, Serial: 0xBAD}
		drained = append(drained, g)
	}
	after := r.Events()
	for _, g := range drained {
		frame.Put(g)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("recorded events changed after pool recycling:\nbefore %+v\nafter  %+v", before, after)
	}
}

func TestJSONLStreamsEvents(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	tap := j.ChannelTap("A->B")
	f := frame.NewI(3, 77, []byte("abcd"))
	tap(sim.Time(1500), "tx", f)
	tap(sim.Time(2000), "drop", frame.NewRequestNAK(4))
	tap(sim.Time(2500), "rx", nil)

	if j.Err() != nil {
		t.Fatalf("unexpected error: %v", j.Err())
	}
	if j.Count() != 3 {
		t.Fatalf("count = %d, want 3", j.Count())
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want 3", len(lines))
	}
	if lines[0]["kind"] != "TX" || lines[0]["at_ns"] != float64(1500) {
		t.Fatalf("first line = %v", lines[0])
	}
	fr, ok := lines[0]["frame"].(map[string]any)
	if !ok || fr["seq"] != float64(3) || fr["datagram_id"] != float64(77) {
		t.Fatalf("frame field = %v", lines[0]["frame"])
	}
	if lines[1]["kind"] != "DROP" || lines[1]["where"] != "A->B" {
		t.Fatalf("second line = %v", lines[1])
	}
	if fr := lines[1]["frame"].(map[string]any); fr["kind"] != "REQNAK" || fr["serial"] != float64(4) {
		t.Fatalf("second line's frame = %v", fr)
	}
	if _, has := lines[2]["frame"]; has {
		t.Fatal("an event without a frame carries a frame field")
	}
}

func TestJSONLFilter(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Filter = func(e Event) bool { return e.Kind == KindDrop }
	j.Add(Event{Kind: KindTx})
	j.Add(Event{Kind: KindDrop})
	if j.Count() != 1 {
		t.Fatalf("count = %d, want 1 (filter not applied)", j.Count())
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

func TestJSONLStickyError(t *testing.T) {
	w := &failWriter{}
	j := NewJSONL(w)
	j.Add(Event{Kind: KindTx})
	j.Add(Event{Kind: KindTx})
	j.Add(Event{Kind: KindTx})
	if j.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	if j.Count() != 0 {
		t.Fatalf("count = %d after failed writes", j.Count())
	}
	if w.n != 1 {
		t.Fatalf("writer called %d times; error is not sticky", w.n)
	}
}

func TestJSONLNilSafety(t *testing.T) {
	var j *JSONL
	j.Add(Event{Kind: KindTx})
	if j.Count() != 0 || j.Err() != nil {
		t.Fatal("nil JSONL not inert")
	}
	if j.ChannelTap("x") != nil {
		t.Fatal("nil JSONL tap should be nil")
	}
	var r *Recorder
	if r.ChannelTap("x") != nil {
		t.Fatal("nil Recorder tap should be nil")
	}
}
