package lamsdlc

// Allocation pins for the ISSUE 6 zero-alloc steady paths. These fail in
// plain `go test` when a regression reintroduces per-event garbage, instead
// of waiting for a bench diff to notice.

import (
	"testing"

	"repro/internal/arq"
	"repro/internal/arq/arqtest"
	"repro/internal/frame"
	"repro/internal/sim"
)

// TestSenderCheckpointProcessingNoAllocs pins the full steady-state sender
// cycle — enqueue, pump, checkpoint with a NAK (bitset classification,
// renumbered retransmission, releases) — at zero allocations.
func TestSenderCheckpointProcessingNoAllocs(t *testing.T) {
	sched := sim.NewScheduler()
	m := &arq.Metrics{}
	s := NewSender(sched, arqtest.NullWire{}, baseCfg(), m, nil)
	s.Start()

	payload := make([]byte, 64)
	id := uint64(0)
	serial := uint32(0)
	cp := new(frame.Frame)

	round := func() {
		for i := 0; i < 4; i++ {
			if !s.Enqueue(arq.Datagram{ID: id, Payload: payload}) {
				t.Fatal("enqueue rejected")
			}
			id++
		}
		sched.RunFor(2 * sim.Microsecond) // pump the batch (TxTime is 0)
		// Checkpoint acking everything, NAKing the last seq sent: exercises
		// the naked bitset, one renumbered retransmission, and releases.
		serial++
		cp.Kind, cp.Serial, cp.Ack = frame.KindCheckpoint, serial, s.NextSeq()
		cp.NAKs = append(cp.NAKs[:0], s.NextSeq()-1)
		s.HandleFrame(sched.Now(), cp)
	}

	for i := 0; i < 50; i++ { // warm free lists, queues and scratch capacities
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("sender checkpoint cycle allocates %.2f/op, want 0", avg)
	}
	if m.Delivered.Value() != 0 && s.Unacked() < 0 {
		t.Fatal("unreachable") // keep m live
	}
}

// TestReceiverResolveNoAllocs pins the steady-state receiver cycle — I-frame
// arrival with a gap, t_proc processing and delivery, checkpoint emission
// with a cumulative NAK list — at zero allocations.
func TestReceiverResolveNoAllocs(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := baseCfg()
	m := &arq.Metrics{}
	r := NewReceiver(sched, arqtest.NullWire{}, cfg, m, nil)
	r.Start()

	seq := uint32(0)
	var frames frame.List // the run's free list, as Pipe.Send uses it
	sendI := func(s uint32) {
		f := frames.Get(false)
		frames.Adopt(f)
		f.Kind, f.Seq, f.DatagramID = frame.KindI, s, uint64(s)
		f.EnqueuedNS = int64(sched.Now()) // keep the delay histogram's bucket fixed
		r.HandleFrame(sched.Now(), f)     // receiver recycles f after t_proc
	}
	round := func() {
		sendI(seq)
		seq += 2 // skip one: a fresh gap enters intervals[0] every cycle
		sendI(seq)
		seq++
		// Process both frames and emit one checkpoint (NAK union over the
		// C_depth cumulation window, interval rotation).
		sched.RunFor(cfg.CheckpointInterval)
	}

	for i := 0; i < 50; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("receiver resolve cycle allocates %.2f/op, want 0", avg)
	}
	if m.Delivered.Value() == 0 {
		t.Fatal("no deliveries happened; the pin measured nothing")
	}
}

// TestDedupSeenPrunedAfter100k pins the dedup memory's population after
// 100k datagrams: incremental expiry must hold it at exactly one window's
// deliveries, independent of transfer length (ISSUE 6 satellite).
func TestDedupSeenPrunedAfter100k(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := baseCfg()
	cfg.DedupWindow = 50 * sim.Millisecond
	r := NewReceiver(sched, arqtest.NullWire{}, cfg, &arq.Metrics{}, nil)

	const (
		n   = 100_000
		gap = 50 * sim.Microsecond // 1000 deliveries per window
	)
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		now = now.Add(gap)
		r.recordSeen(uint64(i), now)
	}
	// Entries at most DedupWindow old survive: window/gap + 1 = 1001.
	want := int(cfg.DedupWindow/gap) + 1
	if got := r.DedupEntries(); got != want {
		t.Fatalf("dedup memory after %d datagrams = %d entries, want %d", n, got, want)
	}
	if got := r.dedupAge.Len(); got != want {
		t.Fatalf("dedup FIFO after %d datagrams = %d records, want %d", n, got, want)
	}
}

// TestDrainedReceiveBufferHoldsNoChunk pins the receive buffer's storage: the
// chunk the queued frames took from the run memory goes back when processing
// drains the buffer, so an idle link keeps no FIFO storage.
func TestDrainedReceiveBufferHoldsNoChunk(t *testing.T) {
	sched := sim.NewScheduler()
	c := procChunks.Get(sched)
	procChunks.Put(sched, c) // c is the chunk the next PushBack takes
	r := NewReceiver(sched, arqtest.NullWire{}, baseCfg(), &arq.Metrics{}, nil)
	var frames frame.List
	for seq := uint32(0); seq < 3; seq++ {
		f := frames.Get(false)
		frames.Adopt(f)
		f.Kind, f.Seq, f.DatagramID = frame.KindI, seq, uint64(seq)
		r.HandleFrame(sched.Now(), f)
	}
	if r.QueueLen() != 3 {
		t.Fatalf("receive buffer holds %d frames, want 3", r.QueueLen())
	}
	sched.Run() // t_proc for each; the receiver is not started, so no checkpoints
	if r.QueueLen() != 0 {
		t.Fatalf("receive buffer holds %d frames after processing, want 0", r.QueueLen())
	}
	if procChunks.Get(sched) != c {
		t.Fatal("a drained receive buffer kept its chunk")
	}
}
