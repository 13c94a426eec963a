package lamsdlc

import (
	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/sim"
)

// Pair wires a Sender and a Receiver across a full-duplex simulated link:
// I-frames flow A→B, checkpoint traffic flows B→A. It is the one-line setup
// the experiments and examples use for unidirectional data transfer (a
// bidirectional node runs one Pair per direction; see internal/node). The
// arq.Pair contract is the embedded arq.PairBase forwarding to the two
// halves; the methods here add LAMS-DLC's capability interfaces.
type Pair struct {
	arq.PairBase
	Sender   *Sender
	Receiver *Receiver
}

// NewPair builds and wires the endpoints: the sender entity and its timers
// on sendSched, the receiver entity on recvSched — the same scheduler
// unless the session's two satellites live on different shards. The
// entities are the same either way (the sans-IO construction already takes
// scheduler and wire separately); deliver runs on recvSched's shard.
// deliver and onFailure may be nil.
func NewPair(sendSched, recvSched *sim.Scheduler, link *channel.Link, cfg Config, deliver arq.DeliverFunc, onFailure arq.FailureFunc) *Pair {
	ms, mr := arq.PairMetrics(sendSched, recvSched)
	s := NewSender(sendSched, link.AtoB, cfg, ms, onFailure)
	r := NewReceiver(recvSched, link.BtoA, cfg, mr, deliver)
	return &Pair{PairBase: arq.NewPairBase(link, s, r, ms, mr), Sender: s, Receiver: r}
}

// MaxLiveSpan implements arq.SpanReporter.
func (p *Pair) MaxLiveSpan() uint32 { return p.Sender.MaxLiveSpan() }

// RateFraction implements arq.RateReporter.
func (p *Pair) RateFraction() float64 { return p.Sender.RateFraction() }

// SetCheckpointPeriod implements arq.CheckpointRetimer (fault-injected
// clock skew).
func (p *Pair) SetCheckpointPeriod(d sim.Duration) { p.Receiver.SetCheckpointPeriod(d) }

// The capabilities consumers discover by type assertion.
var (
	_ arq.SpanReporter      = (*Pair)(nil)
	_ arq.RateReporter      = (*Pair)(nil)
	_ arq.CheckpointRetimer = (*Pair)(nil)
)
