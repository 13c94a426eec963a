package hdlc

import (
	"repro/internal/arq"
	"repro/internal/frame"
	"repro/internal/sim"
)

// Corruption-adversary surfaces. HDLC, like LAMS-DLC, is not
// self-stabilizing, so it takes the BOUNDED contract DESIGN.md §13 states:
// CorruptState scrambles only supervision and bookkeeping state the
// protocol's own T1/N2 machinery demonstrably repairs, and never the
// sequence state the external probe tracks (sendBase, nextSeq, recvBase,
// window entries, held frames) — scrambling those desyncs the checker's
// observation, measuring the adversary instead of the engine. HDLC has no
// renumbering, so unlike ssarq there is no probe-consistent way to report a
// sequence rewrite.
//
// Determinism: no map iteration — Go randomizes map order independently of
// the simulation seed, which would break the byte-identical workers-1-vs-8
// pins. The poisoned srejSent entry is INSERTED at a derived key rather
// than found by walking the map.

// CorruptState implements arq.StateCorruptor on a pair built from the configuration.
func (Config) CorruptState(p *arq.Pair, rng *sim.RNG) {
	s, r := p.Sender.(*Sender), p.Receiver.(*Receiver)
	now := s.sched.Now()

	// Sender: N2 progress scrambled within the lower half of its budget
	// (any readable supervisory frame resets it; staying below the
	// declaration threshold keeps this the bounded contract — a count
	// forged AT the threshold would fabricate a failure declaration, which
	// is the unbounded adversary ssarq exists for). Pacing debt jittered
	// far into the future — the pump's one-Timeout clamp is the repair —
	// and the stutter cursor thrown out of range, which stutter() clamps.
	if s.cfg.MaxTimeouts > 0 {
		s.timeoutsInRow = rng.Intn(s.cfg.MaxTimeouts/2 + 1)
	} else {
		s.timeoutsInRow = rng.Intn(8)
	}
	s.stutterIdx = rng.Intn(2 * s.cfg.WindowSize)
	s.FreeAt = now.Add(sim.Duration(rng.Int63n(int64(4 * s.cfg.Timeout))))

	// Receiver: RR cadence counter (self-corrects within one window of
	// deliveries), the GBN one-REJ-per-gap latch (a suppressed REJ is
	// covered by T1 timeout recovery), and a phantom SREJ-sent record for
	// a near-future sequence number — the receiver then believes it
	// already rejected that frame, so if it is genuinely lost the SREJ
	// never goes out and T1 recovery must carry it. accept() garbage-
	// collects the record once recvBase passes it.
	r.deliveredInWindow = rng.Intn(2*r.cfg.WindowSize + 1)
	r.rejSent = rng.Intn(2) == 0
	if r.srejSent != nil {
		r.srejSent[r.recvBase+uint32(rng.Intn(r.cfg.WindowSize))] = true
	}
}

// ghostPayload is the shared body of forged I-frames; the pipe copies on
// Send and nothing downstream mutates payload bytes.
var ghostPayload = make([]byte, 32)

// ForgeGhost implements arq.GhostForger. Toward the sender it forges
// supervisory frames split between plausible RRs (early releases of
// undelivered frames: bounded in-era casualties), implausible RRs the
// handleRR guard must refuse (N(R) above nextSeq would otherwise release
// the window unseen and wedge sendBase), and spurious SREJs (harmless
// duplicate retransmissions). Toward the receiver it forges I-frames near
// the receive base; one landing exactly on recvBase is delivered and
// permanently displaces the genuine frame of that number — HDLC cannot
// renumber around it, which is exactly the legacy-triage hazard §13
// documents (the displaced genuine frame reads as a duplicate forever and,
// with the watermark run ahead, the sender's RRs all read implausible
// until N2 declares failure: bounded, not self-stabilizing).
func (Config) ForgeGhost(p *arq.Pair, rng *sim.RNG, toReceiver bool) *frame.Frame {
	s, r := p.Sender.(*Sender), p.Receiver.(*Receiver)
	f := new(frame.Frame)
	if toReceiver {
		f.Kind = frame.KindHDLCI
		f.Seq = r.recvBase + uint32(rng.Intn(2*r.cfg.WindowSize))
		f.DatagramID = 1<<63 | rng.Uint64()>>1
		f.Payload = ghostPayload
		f.Final = rng.Intn(2) == 0
		f.EnqueuedNS = int64(s.sched.Now())
		return f
	}
	switch rng.Intn(3) {
	case 0: // plausible RR: early release inside the live window
		f.Kind = frame.KindRR
		f.Ack = s.sendBase + 1 + uint32(rng.Int63n(int64(s.NextSeq()-s.sendBase)+1))
		if f.Ack > s.NextSeq() {
			f.Ack = s.NextSeq()
		}
	case 1: // implausible RR: acknowledges frames never sent
		f.Kind = frame.KindRR
		f.Ack = s.NextSeq() + 1 + uint32(rng.Intn(1<<16))
	default: // spurious SREJ inside the window
		f.Kind = frame.KindSREJ
		f.Ack = s.sendBase
		f.Seq = s.sendBase + uint32(rng.Intn(s.cfg.WindowSize))
	}
	return f
}

// Compile-time checks for the corruption surfaces.
var (
	_ arq.StateCorruptor = Config{}
	_ arq.GhostForger    = Config{}
)
