package lamsdlc

import (
	"repro/internal/arq"
	"repro/internal/frame"
	"repro/internal/sim"
)

// Corruption-adversary surfaces. LAMS-DLC is not
// self-stabilizing — §3.2's invariants presume the state machines start
// legal and stay legal — so the contract here is the BOUNDED one DESIGN.md
// §13 states: CorruptState scrambles supervision and bookkeeping state
// within one recovery-window scale and never touches the sequence-number
// incarnations the external probe tracks (scrambling those desyncs the
// checker's observation, measuring the adversary instead of the engine;
// ssarq, whose probe story is renumbering-closed, takes the unbounded
// contract). Everything scrambled here is state the protocol's own timers
// and multiplicative flow control demonstrably repair.
//
// Determinism: no map iteration — Go randomizes map order independently of
// the simulation seed, which would break the byte-identical workers-1-vs-8
// pins. Poisoned dedup entries are INSERTED (deterministic) rather than
// found by walking r.seen.

// CorruptState implements arq.StateCorruptor on a pair built from the configuration.
func (Config) CorruptState(p *arq.Pair, rng *sim.RNG) {
	s, r := p.Sender.(*Sender), p.Receiver.(*Receiver)
	now := s.sched.Now()

	// Sender: flow-control fraction anywhere in its legal range (repaired
	// multiplicatively by subsequent checkpoints).
	s.rateFraction = minRateFraction + rng.Float64()*(1-minRateFraction)
	s.im.rateFraction.Set(s.rateFraction)
	// Supervision clocks jittered within one window scale, including into
	// the future — the monotone-clock repairs in handleCheckpoint,
	// onFailureTimeout, and pump are what make this bounded.
	s.reqSentAt = now.Add(jitter(rng, s.cfg.FailureTimeout()))
	s.lastCpAt = now.Add(jitter(rng, s.cfg.CheckpointTimeout()))
	s.FreeAt = now.Add(sim.Duration(rng.Int63n(int64(4 * s.cfg.ResolvingPeriod()))))
	if s.cfg.RequestRetries > 0 {
		s.retriesLeft = rng.Intn(s.cfg.RequestRetries + 1)
	}

	// Receiver: Stop-Go bit (repaired by updateStopGo on the next
	// admission), a phantom error report naming a near-future sequence
	// number (a live frame retransmits renumbered; an unsent one misses
	// the sender's window check), and poisoned dedup memory — including
	// future-dated records, which exercise the expiry path that must treat
	// them as expired rather than eternally fresh.
	r.stopGo = rng.Intn(2) == 0
	if len(r.intervals) > 0 {
		r.intervals[0] = append(r.intervals[0], r.expected+uint32(rng.Intn(64)))
	}
	if r.seen != nil {
		for i := 0; i < 3; i++ {
			id := 1<<63 | rng.Uint64()>>1
			at := now.Add(sim.Duration(rng.Int63n(int64(2*r.cfg.DedupWindow + 1))))
			r.seen[id] = at
			r.dedupAge.PushBack(dedupRec{id: id, at: at})
		}
	}
}

func jitter(rng *sim.RNG, scale sim.Duration) sim.Duration {
	return sim.Duration(rng.Int63n(int64(2*scale+1)) - int64(scale))
}

// ghostPayload is the shared body of forged I-frames; the pipe copies on
// Send and nothing downstream mutates payload bytes.
var ghostPayload = make([]byte, 32)

// ForgeGhost implements arq.GhostForger. Toward the receiver it forges
// I-frames split between small watermark jumps (phantom gaps that NAK —
// and so force renumbered retransmission of — genuine in-flight frames)
// and far-future jumps the MaxSeqJump guard must discard. Toward the
// sender it forges checkpoints split between plausible watermarks (early
// releases: bounded in-era casualties) and impossible ones the
// effAck guard must refuse to release on.
func (Config) ForgeGhost(p *arq.Pair, rng *sim.RNG, toReceiver bool) *frame.Frame {
	s, r := p.Sender.(*Sender), p.Receiver.(*Receiver)
	f := new(frame.Frame)
	if toReceiver {
		f.Kind = frame.KindI
		jump := uint32(rng.Intn(64))
		if rng.Intn(2) == 0 {
			jump = MaxSeqJump + 1 + uint32(rng.Intn(1<<16))
		}
		f.Seq = r.expected + jump
		f.DatagramID = 1<<63 | rng.Uint64()>>1
		f.Payload = ghostPayload
		f.EnqueuedNS = int64(s.sched.Now())
		return f
	}
	f.Kind = frame.KindCheckpoint
	f.Serial = r.serial + uint32(rng.Intn(4))
	if rng.Intn(2) == 0 && s.NextSeq() > 0 {
		f.Ack = uint32(rng.Int63n(int64(s.NextSeq()) + 1))
	} else {
		f.Ack = s.NextSeq() + 1 + uint32(rng.Intn(1<<16))
	}
	f.StopGo = rng.Intn(2) == 0
	f.Enforced = rng.Intn(2) == 0
	return f
}

// Compile-time checks for the corruption surfaces.
var (
	_ arq.StateCorruptor = Config{}
	_ arq.GhostForger    = Config{}
)
