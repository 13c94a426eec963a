package ssarq

import (
	"testing"

	"repro/internal/arq"
	"repro/internal/arq/arqtest"
	"repro/internal/frame"
	"repro/internal/sim"
)

// TestReceiveCycleNoAllocs pins the receive cycle — a recycled I-frame
// arrives, is delivered or suppressed as a duplicate or refused for its
// slot, and is acknowledged — at zero allocations: the receiver owns every
// uncorrupted I-frame it is handed (channel.Handler) and must recycle it on
// all three exits, or each arrival leaks a frame of the run's free list to the collector.
func TestReceiveCycleNoAllocs(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := baseCfg()
	m := &arq.Metrics{}
	delivered := 0
	r := NewReceiver(sched, arqtest.NullWire{}, cfg, m, func(sim.Time, arq.Datagram, uint32) { delivered++ })

	var frames frame.List // the run's free list, as Pipe.Send uses it
	arrive := func(seq uint32) {
		f := frames.Get(false)
		frames.Adopt(f)
		f.Kind, f.Seq, f.DatagramID = frame.KindI, seq, uint64(seq)
		f.EnqueuedNS = int64(sched.Now()) // keep the delay histogram's bucket fixed
		r.HandleFrame(sched.Now(), f)
	}
	token := uint32(0)
	round := func() {
		token++
		seq := Pack(token%labelMod, 1, token)
		arrive(seq)                   // delivered
		arrive(seq)                   // duplicate
		arrive(Pack(0, Lanes, token)) // slot beyond the lane count
	}
	for i := 0; i < 50; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("receive cycle allocates %.2f/op, want 0", avg)
	}
	if delivered != 151 || m.DupSuppressed.Value() != 151 {
		t.Fatalf("delivered %d, duplicates %d; want 151 each", delivered, m.DupSuppressed.Value())
	}
}

// TestDrainedSendQueueHoldsNoChunk pins the send queue's storage: the chunk a
// waiting datagram took from the run memory goes back when a released lane
// drains the queue, so an idle link keeps no FIFO storage.
func TestDrainedSendQueueHoldsNoChunk(t *testing.T) {
	sched := sim.NewScheduler()
	c := queueChunks.Get(sched)
	queueChunks.Put(sched, c) // c is the chunk the next PushBack takes
	s := NewSender(sched, arqtest.NullWire{}, baseCfg(), &arq.Metrics{}, nil)
	for i := 0; i <= len(s.lanes); i++ { // every lane busy, one datagram waits
		s.Enqueue(arq.Datagram{ID: uint64(i)})
	}
	if s.queue.Len() != 1 {
		t.Fatalf("send queue holds %d datagrams, want 1", s.queue.Len())
	}
	s.HandleFrame(sched.Now(), &frame.Frame{Kind: frame.KindRR, Ack: s.lanes[0].seq})
	if s.queue.Len() != 0 {
		t.Fatalf("send queue holds %d datagrams after a release, want 0", s.queue.Len())
	}
	if queueChunks.Get(sched) != c {
		t.Fatal("a drained send queue kept its chunk")
	}
}

// TestScanCycleNoAllocs pins the retransmission scanner: every scan re-arms
// itself with the callback bound once at construction, so a busy link's scans
// allocate nothing. A method value taken anew at each scan is one closure
// allocated per scan.
func TestScanCycleNoAllocs(t *testing.T) {
	sched := sim.NewScheduler()
	m := &arq.Metrics{}
	s := NewSender(sched, arqtest.NullWire{}, baseCfg(), m, nil)
	s.Enqueue(arq.Datagram{ID: 1}) // never acknowledged: the lane stays busy
	s.Start()
	period := s.scanPeriod()
	sched.RunFor(10 * period)
	if avg := testing.AllocsPerRun(100, func() { sched.RunFor(period) }); avg != 0 {
		t.Fatalf("a scan allocates %.2f objects, want 0", avg)
	}
	if m.Retransmissions.Value() == 0 {
		t.Fatal("the pin measured no retransmission")
	}
}
