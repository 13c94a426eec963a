// Package arq holds the vocabulary shared by the LAMS-DLC implementation
// and the HDLC baselines: datagrams, the outbound-wire interface the sans-IO
// protocol entities talk to, delivery callbacks, and the common metrics the
// experiment harness reads.
//
// Protocol entities in this repository are written against two narrow
// dependencies — a *sim.Scheduler for timers and a Wire for output — so the
// same state machines run unchanged under the discrete-event driver
// (internal/channel pipes) and the real-time driver (internal/live).
package arq

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Datagram is the unit of service the DLC offers the network layer: an
// opaque payload with an identity. LAMS-DLC provides a datagram service
// (out-of-sequence, zero-loss); identities let the destination resequence
// and de-duplicate.
type Datagram struct {
	// ID is unique per source; sources assign consecutive IDs so the
	// resequencer can restore order.
	ID uint64
	// Payload is the user data.
	Payload []byte
	// EnqueuedAt records when the network layer handed the datagram to the
	// DLC, for end-to-end delay measurement.
	EnqueuedAt sim.Time
}

// Wire is the outbound interface a protocol entity transmits on. It is
// implemented by *channel.Pipe in simulation and by the live driver's
// transports.
type Wire interface {
	// Send queues a frame for transmission. Implementations clone the
	// frame; the caller may reuse it.
	Send(f *frame.Frame)
	// TxTime returns the serialization time of f at the wire's rate,
	// which protocols use for send pacing.
	TxTime(f *frame.Frame) sim.Duration
}

// DeliverFunc receives datagrams the protocol hands up to the network
// layer. seq is the link-layer sequence number the delivering frame carried
// (diagnostic; LAMS-DLC renumbers retransmissions, so one datagram can
// arrive under different seqs in duplicate cases).
type DeliverFunc func(now sim.Time, dg Datagram, seq uint32)

// FailureFunc is called once if the protocol declares the link failed.
type FailureFunc func(now sim.Time, reason string)

// Metrics aggregates the measurements every experiment reads. A Metrics
// value is owned by one protocol endpoint pair; zero value ready for use.
type Metrics struct {
	// Sender side.
	Submitted       stats.Counter // datagrams accepted from the network layer
	FirstTx         stats.Counter // first transmissions of an I-frame
	Retransmissions stats.Counter
	ControlSent     stats.Counter
	SendBufOcc      stats.TimeWeighted // sending-buffer occupancy (frames)
	HoldingTime     stats.Histogram    // per-frame buffer holding time (ns)
	RateChanges     stats.Counter      // flow-control rate adjustments
	Recoveries      stats.Counter      // enforced recoveries begun (Request-NAKs sent)
	Failures        stats.Counter      // declared link failures

	// Receiver side.
	Delivered     stats.Counter      // datagrams handed to the network layer
	RecvBufOcc    stats.TimeWeighted // receive-buffer occupancy (frames)
	RecvDropped   stats.Counter      // overflow discards (flow control)
	DupSuppressed stats.Counter      // DLC-level duplicate suppressions (DedupWindow)
	NAKsSent      stats.Counter
	Checkpoints   stats.Counter

	DeliveryDelay stats.Welford // enqueue-to-delivery delay (ns)
}

// NoteDelivery records one upward delivery at the receiver.
func (m *Metrics) NoteDelivery(now sim.Time, dg Datagram) {
	m.Delivered.Inc()
	m.DeliveryDelay.Add(float64(now.Sub(dg.EnqueuedAt)))
}

// MergeSplit combines the two Metrics blocks of a split pair (sender entity
// and receiver entity on different schedulers, each with its own block; see
// NewPair) into the single view a report reads. Sender-side
// fields come from sender, receiver-side fields from receiver, and
// ControlSent — the one counter both sides bump — is summed. The result is a
// snapshot: call it only when both shards are quiesced, and count into the
// source blocks, never into the returned value.
func MergeSplit(sender, receiver *Metrics) Metrics {
	m := *sender
	m.ControlSent.Addn(receiver.ControlSent.Value())
	m.Delivered = receiver.Delivered
	m.RecvBufOcc = receiver.RecvBufOcc
	m.RecvDropped = receiver.RecvDropped
	m.DupSuppressed = receiver.DupSuppressed
	m.NAKsSent = receiver.NAKsSent
	m.Checkpoints = receiver.Checkpoints
	m.DeliveryDelay = receiver.DeliveryDelay
	return m
}

// MeanHoldingTime returns the mean sender-buffer holding time as a duration.
func (m *Metrics) MeanHoldingTime() sim.Duration {
	return sim.Duration(m.HoldingTime.Mean())
}

// Timing bundles the scenario timing parameters shared by both protocols'
// configuration, mirroring the symbols of Section 4.
type Timing struct {
	// RoundTrip is R, the mean round-trip propagation time.
	RoundTrip sim.Duration
	// ProcTime is t_proc, the (maximum) per-frame processing time. Only the
	// LAMS-DLC receiver has a processing stage; the other engines ignore it.
	ProcTime sim.Duration
}

// Validate reports a descriptive error for nonsensical parameters.
func (t Timing) Validate() error {
	if t.RoundTrip < 0 {
		return fmt.Errorf("arq: negative round trip %v", t.RoundTrip)
	}
	if t.ProcTime < 0 {
		return fmt.Errorf("arq: negative processing time %v", t.ProcTime)
	}
	return nil
}
