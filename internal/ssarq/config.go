// Package ssarq implements SS-ARQ, a self-stabilizing ARQ engine in the
// style of Dolev et al. (arXiv:2006.05901): an automatic repeat request
// protocol that regains eventual exactly-once delivery from ANY starting
// state — including states an adversary wrote into it mid-run — after a
// bounded convergence interval, paying at most a bounded number of
// duplicate or lost deliveries while it converges.
//
// The construction trades the windowed pipelines of LAMS-DLC and HDLC for
// redundancy that needs no trusted initial agreement: the engine runs
// Lanes independent stop-and-wait lanes, each cycling a three-valued
// alternating label. A lane's frame carries a packed 32-bit sequence value
// — label (2 bits), lane slot (8 bits), and a per-load pseudo-random token
// (22 bits) — and the receiver acknowledges by echoing exactly that packed
// value. The sender releases a lane only on an exact echo of the value it
// is currently sending; the receiver delivers a frame exactly when the
// packed value differs from the last value it delivered on that slot.
// Because release requires an exact 32-bit echo and every load draws a
// fresh token, no reachable-or-corrupted receiver state can systematically
// absorb new traffic: a stale or scrambled lastDelivered value collides
// with a fresh (label, token) pair with probability ~2^-24 per load, and a
// single collision costs one datagram, not the lane. The engine never
// declares link failure — self-stabilization is unconditional convergence,
// and a failure declaration would be a state the adversary could force.
//
// Convergence bound: after the last corruption event, every lane is
// retransmitting its current value at least once per RetxInterval. One
// uncorrupted round trip after a retransmission either releases the lane
// (echo matches) or refreshes the receiver's slot state so the next
// reload's fresh token is delivered. Two retransmission periods plus two
// round trips therefore re-establish the legal-execution invariants on
// every lane; ConvergenceBound adds one more retransmission period on top
// of that floor.
// DESIGN.md §13 carries the full derivation.
package ssarq

import (
	"fmt"

	"repro/internal/arq"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Sequence-value packing: label | slot | token, low bits first.
const (
	labelBits = 2
	slotBits  = 8
	tokenBits = 22

	// MaxSlots is the largest lane count the slot field can address.
	MaxSlots = 1 << slotBits

	// labelMod is the alternating-label modulus. Three values (not two)
	// are required so a stale in-flight ack from the previous incarnation
	// can never match the current one even when tokens collide.
	labelMod = 3

	tokenMask = 1<<tokenBits - 1
)

// Lanes is the number of independent stop-and-wait lanes. More lanes buy
// pipelining — the engine keeps up to Lanes datagrams in flight — at the
// price of a larger state surface to re-stabilize.
const Lanes = 16

// Pack composes the wire sequence value for (label, slot, token).
func Pack(label uint32, slot int, token uint32) uint32 {
	return label%labelMod | uint32(slot)<<labelBits | (token&tokenMask)<<(labelBits+slotBits)
}

// Slot extracts the lane index from a packed sequence value.
func Slot(v uint32) int { return int(v>>labelBits) & (MaxSlots - 1) }

// Config parameterizes one SS-ARQ pair.
type Config struct {
	arq.Timing

	// BufferLimit caps Outstanding (busy lanes plus queued datagrams);
	// Enqueue refuses above it. Zero means unlimited.
	BufferLimit int

	// Metrics optionally publishes ssarq_* instruments.
	Metrics *metrics.Registry
}

// Defaults returns the paper-style operating point for a given round trip:
// the round trip and a generous 1024-datagram buffer.
func Defaults(roundTrip sim.Duration) Config {
	return Config{
		Timing:      arq.Timing{RoundTrip: roundTrip},
		BufferLimit: 1024,
	}
}

// RetxInterval is the per-lane retransmission period, 1.5·R (the HDLC
// baseline's timeout), or 1 ms on a zero round trip: a busy lane re-sends
// its current frame whenever it has been silent this long. It is also the
// engine's only timer — there is no failure timeout.
func (c Config) RetxInterval() sim.Duration {
	if retx := c.RoundTrip + c.RoundTrip/2; retx > 0 {
		return retx
	}
	return sim.Millisecond
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.BufferLimit < 0 {
		return fmt.Errorf("ssarq: BufferLimit must be non-negative, got %d", c.BufferLimit)
	}
	return nil
}

// WithLinkLifetime implements arq.EngineConfig. SS-ARQ has no
// lifetime-aware behavior (no failure declaration to time), so the
// configuration is returned unchanged.
func (c Config) WithLinkLifetime(sim.Duration) arq.EngineConfig { return c }

// WithMetrics implements arq.EngineConfig.
func (c Config) WithMetrics(reg *metrics.Registry) arq.EngineConfig {
	c.Metrics = reg
	return c
}

// NewSender implements arq.EngineConfig.
func (c Config) NewSender(sched *sim.Scheduler, wire arq.Wire, m *arq.Metrics, onFailure arq.FailureFunc) arq.SenderHalf {
	return NewSender(sched, wire, c, m, onFailure)
}

// NewReceiver implements arq.EngineConfig.
func (c Config) NewReceiver(sched *sim.Scheduler, wire arq.Wire, m *arq.Metrics, deliver arq.DeliverFunc) arq.ReceiverHalf {
	return NewReceiver(sched, wire, c, m, deliver)
}

// ConvergenceBound implements arq.StabilizationBound: the longest interval
// after the corruption era closes within which the engine returns to legal
// executions, from any state: the derived floor 2·RetxInterval + 2·R
// (package comment, DESIGN.md §13) plus one retransmission period of slack
// for processing delays and the retransmission scan granularity.
func (c Config) ConvergenceBound() sim.Duration {
	return 3*c.RetxInterval() + 2*c.RoundTrip
}
