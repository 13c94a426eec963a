package live

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/metrics"
)

// gateWriter holds every Write until the test releases it, so the test
// decides what queues up behind a Write in progress.
type gateWriter struct {
	entered chan struct{} // one token per Write, sent on entry
	release chan error    // each Write returns what it receives here

	mu     sync.Mutex
	writes [][]byte
}

func newGateWriter() *gateWriter {
	// Buffered for every Write a test provokes, so a test that stops
	// looking never wedges the writer goroutine.
	return &gateWriter{entered: make(chan struct{}, 16), release: make(chan error, 16)}
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	g.writes = append(g.writes, append([]byte(nil), p...))
	g.mu.Unlock()
	g.entered <- struct{}{}
	if err := <-g.release; err != nil {
		return 0, err
	}
	return len(p), nil
}

func (g *gateWriter) awaitWrite(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the writer never issued the Write")
	}
}

func (g *gateWriter) written() [][]byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([][]byte(nil), g.writes...)
}

// onWire is what a frame looks like on the stream, by the bytewise oracle.
func onWire(t *testing.T, f *frame.Frame) []byte {
	t.Helper()
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return refAppendStuffed(nil, raw)
}

func testFrame(seq, size int) *frame.Frame {
	return frame.NewI(uint32(seq), uint64(seq), bytes.Repeat([]byte{byte(seq), flagByte, escapeByte}, size/3+1)[:size])
}

func TestConnWireCoalescesQueuedFramesInOrder(t *testing.T) {
	g := newGateWriter()
	reg := metrics.New()
	cw := newConnWire(g, 1e9, nil, reg)
	var want [2][]byte
	cw.Send(testFrame(0, 100))
	want[0] = onWire(t, testFrame(0, 100))
	g.awaitWrite(t) // the writer is now inside Write #1
	for i := 1; i <= 5; i++ {
		cw.Send(testFrame(i, 100+i))
		want[1] = append(want[1], onWire(t, testFrame(i, 100+i))...)
	}
	g.release <- nil
	g.awaitWrite(t)
	g.release <- nil
	cw.Close()
	got := g.written()
	if len(got) != 2 {
		t.Fatalf("%d writes, want 2: one frame, then the five queued behind it", len(got))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("write %d = %x\nwant %x", i, got[i], want[i])
		}
	}
	snap := reg.Snapshot()
	if w, f, d := snap.Counter("live_tx_writes_total"), snap.Counter("live_tx_frames_total"), snap.Counter("live_txq_dropped_total"); w != 2 || f != 6 || d != 0 {
		t.Fatalf("writes=%d frames=%d dropped=%d, want 2, 6, 0", w, f, d)
	}
}

func TestConnWireCloseFlushesPending(t *testing.T) {
	g := newGateWriter()
	cw := newConnWire(g, 1e9, nil, nil)
	cw.Send(testFrame(0, 10))
	g.awaitWrite(t)
	cw.Send(testFrame(1, 10))
	cw.Send(testFrame(2, 10))
	closed := make(chan struct{})
	go func() { cw.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with a Write in progress and frames pending")
	case <-time.After(20 * time.Millisecond):
	}
	g.release <- nil
	g.awaitWrite(t)
	g.release <- nil
	<-closed
	got := g.written()
	want := append(onWire(t, testFrame(1, 10)), onWire(t, testFrame(2, 10))...)
	if len(got) != 2 || !bytes.Equal(got[1], want) {
		t.Fatalf("writes %x, want the two pending frames flushed in one", got)
	}
	cw.Send(testFrame(3, 10)) // after Close: ignored, no panic
	cw.Close()                // idempotent
	if n := len(g.written()); n != 2 {
		t.Fatalf("%d writes after Close, want 2", n)
	}
}

func TestConnWireWriteErrorReportedOnce(t *testing.T) {
	g := newGateWriter()
	var reported atomic.Int32
	boom := errors.New("boom")
	cw := newConnWire(g, 1e9, func(err error) {
		if !errors.Is(err, boom) {
			t.Errorf("OnError got %v", err)
		}
		reported.Add(1)
	}, nil)
	cw.Send(testFrame(0, 10))
	g.awaitWrite(t)
	cw.Send(testFrame(1, 10)) // pending when the Write fails: discarded
	g.release <- boom
	<-cw.done // the writer has given up
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < 3000; i++ { // more than the queue could hold
			cw.Send(testFrame(i, 1024))
		}
		cw.Close()
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("Send or Close blocked after a write error")
	}
	if n := reported.Load(); n != 1 {
		t.Fatalf("OnError called %d times, want 1", n)
	}
	if n := len(g.written()); n != 1 {
		t.Fatalf("%d writes, want 1", n)
	}
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if len(cw.pending) > 2048 {
		t.Fatalf("%d bytes pending after the failure: Sends are still queueing", len(cw.pending))
	}
}

func TestConnWireOverflowDropsExactlyWhatDoesNotFit(t *testing.T) {
	g := newGateWriter()
	reg := metrics.New()
	cw := newConnWire(g, 1e9, nil, reg)
	cw.Send(testFrame(0, 10))
	g.awaitWrite(t) // everything below queues behind this Write

	// 60 KiB frames until well past the bound, then a small one that still
	// fits in the space the last big one could not use.
	var want []byte
	var wantDropped uint64
	offer := func(f *frame.Frame) {
		w := onWire(t, f)
		if len(want)+len(w) <= txQueueBytes {
			want = append(want, w...)
		} else {
			wantDropped++
		}
		cw.Send(f)
	}
	for i := 1; i <= 12; i++ {
		offer(testFrame(i, 60<<10))
	}
	offer(testFrame(13, 64))
	offer(testFrame(14, 60<<10))
	if wantDropped < 3 {
		t.Fatalf("test does not straddle the bound: %d dropped, %d bytes kept", wantDropped, len(want))
	}
	if got := cw.Dropped(); got != wantDropped {
		t.Fatalf("Dropped() = %d, want %d", got, wantDropped)
	}
	g.release <- nil
	g.awaitWrite(t)
	g.release <- nil
	cw.Close()
	got := g.written()
	if len(got) != 2 || !bytes.Equal(got[1], want) {
		t.Fatalf("second write carries %d bytes, want the %d bytes of the frames that fit", len(got[len(got)-1]), len(want))
	}
	if d := reg.Snapshot().Counter("live_txq_dropped_total"); d != wantDropped {
		t.Fatalf("live_txq_dropped_total = %d, want %d", d, wantDropped)
	}
}

func TestConnWireSendSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := newGateWriter()
	cw := newConnWire(g, 1e9, nil, nil)
	f := testFrame(1, 1024)
	// Grow both halves of the double buffer to the working size: fill one
	// while the writer is inside Write with the other, twice.
	cw.Send(f)
	g.awaitWrite(t)
	for round := 0; round < 2; round++ {
		for i := 0; i < 300; i++ {
			cw.Send(f)
		}
		g.release <- nil
		g.awaitWrite(t)
	}
	if n := testing.AllocsPerRun(200, func() { cw.Send(f) }); n != 0 {
		t.Fatalf("steady-state Send allocates %v times per frame, want 0", n)
	}
	g.release <- nil
	g.awaitWrite(t)
	g.release <- nil
	cw.Close()
}
