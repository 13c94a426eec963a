package ssarq

import (
	"repro/internal/arq"
	"repro/internal/frame"
	"repro/internal/sim"
)

// Corruption-adversary surfaces: the two methods through which the fault
// injector exercises the self-stabilization claim directly. The adversary is
// not wired across shards — CorruptState and ForgeGhost are driven only by
// the single-scheduler fault harness.

// CorruptState implements arq.StateCorruptor with the strongest contract
// in the registry: ANY protocol state may be overwritten — that is the
// self-stabilization claim under test. Each call rewrites, per lane with
// independent 1-in-3 probability, the sender's label and token, and per
// slot with the same probability the receiver's remembered packed value
// and its validity bit. Only the datagram buffer itself is out of scope,
// mirroring the Dolev model where corruption hits protocol state, not the
// application's packet store. A rewrite of a busy lane is reported through
// the probe as a renumbering retransmission — and transmitted — so the
// external observation stays consistent with the wire (the §13 ownership
// contract) and the checker keeps measuring the engine.
func (Config) CorruptState(p *arq.Pair, rng *sim.RNG) {
	s := p.Sender.(*Sender)
	now := s.sched.Now()
	for i := range s.lanes {
		if rng.Intn(3) != 0 {
			continue
		}
		ln := &s.lanes[i]
		ln.label = uint32(rng.Intn(labelMod))
		ln.token = uint32(rng.Uint64()) & tokenMask
		if !ln.busy {
			continue
		}
		old := ln.seq
		ln.seq = Pack(ln.label, i, ln.token)
		if ln.seq == old {
			continue
		}
		s.send(ln)
		ln.lastTx = now
		s.m.Retransmissions.Inc()
		s.instr.retx.Inc()
		if s.probe != nil && s.probe.Retransmitted != nil {
			s.probe.Retransmitted(now, old, ln.seq, ln.dg.ID, arq.RetxTimeout)
		}
	}
	r := p.Receiver.(*Receiver)
	for i := range r.last {
		if rng.Intn(3) != 0 {
			continue
		}
		r.last[i] = uint32(rng.Uint64())
		r.have[i] = rng.Intn(2) == 0
	}
}

// ghostPayload is the shared body of forged I-frames. The pipe copies
// frames on Send and payload bytes are never mutated downstream, so one
// package-level slice serves every forgery.
var ghostPayload = make([]byte, 32)

// ForgeGhost implements arq.GhostForger. Half the forgeries replay live
// sender state — the exact current packed value of a random busy lane —
// which toward the receiver substitutes the ghost's payload for the real
// frame's, and toward the sender forces a spurious release; the other half
// carry uniformly random packed values, which a converged engine must
// shrug off (random token collision probability ~2^-24). Both halves are
// bounded-casualty events the checker excuses inside the corruption era.
func (Config) ForgeGhost(p *arq.Pair, rng *sim.RNG, toReceiver bool) *frame.Frame {
	s := p.Sender.(*Sender)
	var seq uint32
	var dgID uint64
	if rng.Intn(2) == 0 && s.nbusy > 0 {
		// Replay a live lane, scanning from a random start so every busy
		// lane is reachable.
		start := rng.Intn(len(s.lanes))
		for k := range s.lanes {
			ln := &s.lanes[(start+k)%len(s.lanes)]
			if ln.busy {
				seq, dgID = ln.seq, ln.dg.ID
				break
			}
		}
	} else {
		seq = Pack(uint32(rng.Intn(labelMod)), rng.Intn(len(s.lanes)), uint32(rng.Uint64())&tokenMask)
		dgID = 1<<63 | rng.Uint64()>>1 // high bit keeps forged IDs clear of real ones
	}
	f := new(frame.Frame)
	if toReceiver {
		f.Kind = frame.KindI
		f.Seq = seq
		f.DatagramID = dgID
		f.Payload = ghostPayload
		f.EnqueuedNS = int64(s.sched.Now())
	} else {
		f.Kind = frame.KindRR
		f.Ack = seq
	}
	return f
}

// The capabilities consumers discover by type assertion on the configuration.
var (
	_ arq.StateCorruptor     = Config{}
	_ arq.GhostForger        = Config{}
	_ arq.StabilizationBound = Config{}
)
