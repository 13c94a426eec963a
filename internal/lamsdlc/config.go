// Package lamsdlc implements the paper's primary contribution: the LAMS-DLC
// data link control protocol (Ward & Choi, Auburn CSE-91-03), a NAK-based
// ARQ scheme for low-altitude multiple-satellite laser crosslinks.
//
// The protocol relaxes the in-sequence reliability constraint and replaces
// positive acknowledgements with periodic cumulative negative
// acknowledgements:
//
//   - The receiver emits a Check-Point command every CheckpointInterval
//     (W_cp). The command carries the highest-seen watermark — an implicit
//     positive acknowledgement that lets the sender release buffer space —
//     and the sequence numbers of I-frames found erroneous during the last
//     CumulationDepth (C_depth) intervals, so each error is reported
//     C_depth times and a lost NAK costs only one W_cp of holding time.
//   - The sender retransmits a NAKed frame exactly once per report
//     generation, under a fresh sequence number (legal because in-sequence
//     delivery is not promised); stale NAKs for renumbered frames are
//     recognized and ignored, exactly as §3.2 specifies.
//   - If no checkpoint arrives for C_depth·W_cp, the sender runs Enforced
//     Recovery: it sends a Request-NAK, stops new I-frames, and starts a
//     failure timer. The receiver answers immediately with an Enforced-NAK
//     (or Resolving command when it has nothing to report). Silence past
//     the expected response time plus C_depth·W_cp declares link failure.
//   - A Stop-Go bit in checkpoint commands drives multiplicative-decrease /
//     multiplicative-increase send-rate flow control (§3.4).
//
// Two engineering completions beyond the paper's prose are documented in
// DESIGN.md: gap-based identification of corrupted frames (the receiver
// infers the sequence numbers of damaged frames from holes in the monotone
// sequence space, which works precisely because LAMS-DLC renumbers
// retransmissions), and checkpoint-serial coverage tracking that turns the
// paper's "P_C^C_depth is negligible" argument into a true zero-loss
// guarantee (when C_depth consecutive checkpoints are lost the sender
// retransmits rather than releases; duplicates are resolved by the
// destination resequencer, as §2.3 assigns that responsibility).
package lamsdlc

import (
	"fmt"

	"repro/internal/arq"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Config parameterizes a LAMS-DLC endpoint pair. The zero value is not
// valid; use Defaults or fill every field and call Validate.
type Config struct {
	arq.Timing

	// CheckpointInterval is W_cp (= I_cp in the analysis), the period of
	// the receiver's Check-Point commands.
	CheckpointInterval sim.Duration

	// CumulationDepth is C_depth: how many consecutive checkpoints report
	// each detected error, and how many silent checkpoint intervals the
	// sender tolerates before Enforced Recovery.
	CumulationDepth int

	// SendBufferCap bounds the sending buffer (queued + unacknowledged
	// frames). Zero means unbounded. The transparent buffer size B_LAMS of
	// §4 is the natural setting.
	SendBufferCap int

	// RecvBufferCap bounds the receiver's processing queue. Zero means
	// unbounded (the paper's transparent receive buffer, t_proc/t_f
	// frames, makes overflow impossible in steady state).
	RecvBufferCap int

	// LinkLifetime, when positive, is the remaining lifetime of the link
	// at Start. Enforced Recovery is only attempted while its expected
	// response time fits in the remaining lifetime (a "recoverable"
	// failure, §3.2); otherwise the sender declares failure at once.
	LinkLifetime sim.Duration

	// RequestRetries is how many additional Request-NAKs the sender emits
	// after the first failure-timer expiry before declaring link failure.
	// The paper sends exactly one (zero retries).
	RequestRetries int

	// DedupWindow, when positive, enables the "more recent version" of
	// LAMS-DLC the paper teases in §3.2 ("guarantees zero duplication as
	// well as zero loss"): the receiver remembers the datagram identities
	// it delivered within the window and suppresses re-deliveries. The
	// window is sound when it covers the maximum interval between a
	// delivery and a duplicate retransmission's arrival — duplicates stem
	// from conservative retransmission of frames whose acknowledgement
	// chain broke, so a few resolving periods suffice; DedupHorizon
	// returns a safe default. Memory cost is one entry per delivery
	// within the window (bounded, unlike full in-sequence state).
	DedupWindow sim.Duration

	// Metrics, when non-nil, is the registry the endpoints report their
	// lams_* observability counters, gauges, and histograms into (see
	// instruments.go for the full name list). Nil leaves the endpoints
	// uninstrumented at near-zero cost.
	Metrics *metrics.Registry
}

// The §3.4 Stop-Go rule. The receiver sets the Stop-Go bit when its
// processing queue reaches stopGoHigh of RecvBufferCap and clears it at
// stopGoLow. Each checkpoint with the bit set scales the sender's rate
// fraction by rateDecrease, floored at minRateFraction; each with the bit
// clear scales it by rateIncrease, capped at 1.
const (
	stopGoHigh      = 0.75
	stopGoLow       = 0.5
	rateDecrease    = 0.5
	rateIncrease    = 1.25
	minRateFraction = 1.0 / 64
)

// MaxSeqJump bounds the forward distance between the receiver's next
// expected sequence number and an arriving I-frame's. The monotone
// numbering makes the legitimate jump small — at most the live window,
// itself bounded by the numbering size (§2.3), which tops out in the
// hundreds at the paper's operating points — so a frame claiming a
// far-future number can only be forged or corrupted-yet-CRC-valid, and
// accepting it would both flood the NAK lists with millions of phantom
// gaps and advance the watermark past every genuine frame in flight
// (permanently wedging the link, since all real traffic then classifies
// as duplicate). Frames beyond the bound are discarded and counted
// (lams_implausible_seq_total).
const MaxSeqJump = 1 << 12

// Defaults returns a configuration tuned for the paper's environment: a
// 2,000–10,000 km laser link at a few hundred Mbps.
func Defaults(roundTrip sim.Duration) Config {
	return Config{
		Timing: arq.Timing{
			RoundTrip: roundTrip,
			ProcTime:  10 * sim.Microsecond, // below t_f at 300 Mbps/1 KiB: the removal-rate assumption of §4 holds
		},
		CheckpointInterval: 10 * sim.Millisecond,
		CumulationDepth:    3,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.CheckpointInterval <= 0 {
		return fmt.Errorf("lamsdlc: checkpoint interval must be positive, got %v", c.CheckpointInterval)
	}
	if c.CumulationDepth < 1 {
		return fmt.Errorf("lamsdlc: cumulation depth must be >= 1, got %d", c.CumulationDepth)
	}
	if c.SendBufferCap < 0 || c.RecvBufferCap < 0 {
		return fmt.Errorf("lamsdlc: negative buffer capacity")
	}
	if c.RequestRetries < 0 {
		return fmt.Errorf("lamsdlc: negative RequestRetries")
	}
	// Every recovery window must come out positive and un-saturated, or the
	// sender's timers are nonsense: CheckpointTimeout saturates to the int64
	// horizon when C_depth·W_cp overflows (sim.Scale clamps), after which
	// FailureTimeout and ResolvingPeriod wrap negative when the round trip
	// is added. A failure timer that never fires — or fires instantly —
	// silently disables §3.2's failure declaration.
	if ct := c.CheckpointTimeout(); ct <= 0 || ct == sim.Duration(1<<63-1) {
		return fmt.Errorf("lamsdlc: CheckpointTimeout (C_depth*W_cp) overflows, got %v", ct)
	}
	if ft := c.FailureTimeout(); ft <= 0 {
		return fmt.Errorf("lamsdlc: FailureTimeout must be positive, got %v", ft)
	}
	if rp := c.ResolvingPeriod(); rp <= 0 {
		return fmt.Errorf("lamsdlc: ResolvingPeriod must be positive, got %v", rp)
	}
	return nil
}

// WithLinkLifetime implements arq.EngineConfig: the session layer sets the
// remaining pass duration so §3.2's recoverable-failure test has the real
// lifetime.
func (c Config) WithLinkLifetime(d sim.Duration) arq.EngineConfig {
	c.LinkLifetime = d
	return c
}

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

// RecoveryWindows implements arq.WindowsProvider: the timing bounds the
// §3.2 invariant checker asserts against this configuration.
func (c Config) RecoveryWindows() arq.RecoveryWindows {
	return arq.RecoveryWindows{
		CheckpointTimer: c.CheckpointTimerTimeout(),
		FailureTimeout:  c.FailureTimeout(),
		ResolvingPeriod: c.ResolvingPeriod(),
		RoundTrip:       c.RoundTrip,
	}
}

// CheckpointTimeout is the nominal checkpoint-timer timeout, C_depth·W_cp
// (§3.2).
func (c Config) CheckpointTimeout() sim.Duration {
	return sim.Scale(c.CheckpointInterval, c.CumulationDepth)
}

// CheckpointTimerTimeout is the timeout the sender actually arms:
// C_depth·W_cp plus 1.5 intervals of phase grace. The grace makes §3.3's
// burst-immunity condition exact: a burst of length just under
// C_depth·W_cp can, at worst phase, destroy C_depth consecutive checkpoint
// emissions, leaving an inter-arrival gap of (C_depth+1)·W_cp — the paper's
// nominal timeout would read that as link failure even though the condition
// C_depth·W_cp > L_burst holds.
func (c Config) CheckpointTimerTimeout() sim.Duration {
	return c.CheckpointTimeout() + c.CheckpointInterval + c.CheckpointInterval/2
}

// ExpectedResponse is the normal time from emitting a Request-NAK to
// receiving its Enforced-NAK: a round trip plus processing.
func (c Config) ExpectedResponse() sim.Duration {
	return c.RoundTrip + c.ProcTime
}

// FailureTimeout is the failure-timer duration: the expected response time
// plus C_depth·W_cp (§3.2).
func (c Config) FailureTimeout() sim.Duration {
	return c.ExpectedResponse() + c.CheckpointTimeout()
}

// ResolvingPeriod bounds how long a transmitted I-frame can remain
// unresolved while checkpoints keep flowing: R + ½W_cp + C_depth·W_cp
// (§3.3). The sender retransmits (renumbered) any frame older than this
// that no checkpoint has covered.
func (c Config) ResolvingPeriod() sim.Duration {
	return c.RoundTrip + c.CheckpointInterval/2 + c.CheckpointTimeout()
}

// DedupHorizon returns a safe DedupWindow: four resolving periods, covering
// a conservative retransmission triggered at the very end of the coverage
// break plus its flight and processing.
func (c Config) DedupHorizon() sim.Duration {
	return 4 * c.ResolvingPeriod()
}

// NumberingSize returns the bound on simultaneously outstanding sequence
// numbers implied by the resolving period for the given mean frame time
// t_f (§2.3: numbering size = H_frame / t_f, with H_frame bounded by the
// resolving period in LAMS-DLC). The division rounds up: at frame times
// that do not divide the resolving period, truncation would undercount by
// one — a frame started just inside the period still occupies a number —
// so the bound is ceil(RP/t_f) + 1 (the +1 covers the partially elapsed
// slot at the window's leading edge).
func (c Config) NumberingSize(frameTime sim.Duration) int {
	if frameTime <= 0 {
		return 0
	}
	rp := c.ResolvingPeriod()
	n := rp / frameTime
	if rp%frameTime != 0 {
		n++
	}
	return int(n) + 1
}
