package hdlc

import (
	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/sim"
)

// Pair wires an HDLC Sender and Receiver across a full-duplex simulated
// link, mirroring lamsdlc.Pair so experiments can swap protocols. The
// arq.Pair contract is the embedded arq.PairBase forwarding to the two
// halves (the receiver half is purely reactive: its share of Stop and
// SetProbe is a no-op); the corruption-adversary capabilities are in
// corrupt.go.
type Pair struct {
	arq.PairBase
	Sender   *Sender
	Receiver *Receiver
}

// NewPair builds and wires the endpoints, the sender entity on sendSched and
// the receiver entity on recvSched (one scheduler, or two for a session
// split across a shard boundary; see arq.PairMetrics). deliver and onFailure
// may be nil; onFailure fires on N2 (MaxTimeouts) exhaustion.
func NewPair(sendSched, recvSched *sim.Scheduler, link *channel.Link, cfg Config, deliver arq.DeliverFunc, onFailure arq.FailureFunc) *Pair {
	ms, mr := arq.PairMetrics(sendSched, recvSched)
	s := cfg.NewSender(sendSched, link.AtoB, ms, onFailure).(*Sender)
	r := NewReceiver(recvSched, link.BtoA, cfg, mr, deliver)
	return &Pair{PairBase: arq.NewPairBase(link, s, r, ms, mr), Sender: s, Receiver: r}
}
