// Package hdlc implements the paper's comparison baseline: HDLC-style
// sliding-window ARQ with strict reliability (no loss, no duplicates, FIFO
// delivery to the packet layer), in two recovery modes:
//
//   - SelectiveRepeat (SR-HDLC): the receiver holds out-of-order frames and
//     issues SREJ for each missing frame; the sender retransmits exactly the
//     rejected frames. RR commands acknowledge cumulatively once per window
//     (IBM check-point mode, [8]) and in response to P-bit polls; residual
//     losses are repaired by timeout recovery with t_out = R + α (§4).
//   - GoBackN: the receiver discards out-of-order frames and issues REJ; the
//     sender backs up and resends everything from the rejected number.
//
// Sequence numbers are absolute 32-bit values rather than mod-2^l
// (NBDT-style absolute numbering [7]); the window constraint W ≤ M/2 is
// still enforced against the configured modulus so experiments can study
// the numbering-size trade-off the paper discusses in §2.3.
package hdlc

import (
	"fmt"

	"repro/internal/arq"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Mode selects the retransmission strategy.
type Mode int

// Recovery modes.
const (
	SelectiveRepeat Mode = iota
	GoBackN
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case SelectiveRepeat:
		return "SR-HDLC"
	case GoBackN:
		return "GBN-HDLC"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config parameterizes an HDLC endpoint pair.
type Config struct {
	arq.Timing

	// Mode is the recovery strategy.
	Mode Mode

	// WindowSize is W, the maximum number of outstanding I-frames.
	WindowSize int

	// ModulusBits is l: the sequence-number field width the window must
	// respect (W ≤ 2^l / 2). Zero means 32 (absolute numbering).
	ModulusBits int

	// Timeout is t_out = R + α, the retransmission timeout. It must
	// exceed the worst-case round trip in a moving constellation.
	Timeout sim.Duration

	// Stutter enables the idle-time retransmission of the Stutter/mixed-
	// mode ARQ family the paper's §1 surveys (Stutter GBN, SR+ST of
	// Miller & Lin): while the window blocks new transmissions and the
	// wire would otherwise idle, the sender cyclically repeats its
	// unacknowledged I-frames, trading channel capacity for a chance to
	// deliver before SREJ/timeout recovery completes.
	Stutter bool

	// MaxTimeouts is N2, HDLC's retry count: after this many consecutive
	// T1 expiries with no readable supervisory frame heard, the sender
	// declares link failure (API parity with LAMS-DLC's §3.2 declaration).
	// Zero disables the declaration — the historical behavior, and the
	// default, so existing experiment outputs are unchanged.
	MaxTimeouts int

	// Metrics, when non-nil, is the registry the endpoints report their
	// hdlc_* observability counters and gauges into (see instruments.go
	// for the full name list). Nil leaves the endpoints uninstrumented.
	Metrics *metrics.Registry
}

// Defaults returns an SR-HDLC configuration for the given round trip, with
// α equal to half the round trip (a moderately mobile constellation).
func Defaults(roundTrip sim.Duration) Config {
	return Config{
		Timing: arq.Timing{
			RoundTrip: roundTrip,
			ProcTime:  10 * sim.Microsecond, // below t_f at 300 Mbps/1 KiB: the removal-rate assumption of §4 holds
		},
		Mode:        SelectiveRepeat,
		WindowSize:  64,
		ModulusBits: 7, // M=128, W=M/2
		Timeout:     roundTrip + roundTrip/2,
	}
}

// Alpha returns α = t_out − R.
func (c Config) Alpha() sim.Duration { return c.Timeout - c.RoundTrip }

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.Mode != SelectiveRepeat && c.Mode != GoBackN {
		return fmt.Errorf("hdlc: unknown mode %d", c.Mode)
	}
	if c.WindowSize < 1 {
		return fmt.Errorf("hdlc: window size must be >= 1, got %d", c.WindowSize)
	}
	bits := c.ModulusBits
	if bits == 0 {
		bits = 32
	}
	if bits < 1 || bits > 32 {
		return fmt.Errorf("hdlc: modulus bits must be in [1,32], got %d", bits)
	}
	if bits < 32 && c.WindowSize > 1<<(bits-1) {
		return fmt.Errorf("hdlc: window %d exceeds M/2 = %d", c.WindowSize, 1<<(bits-1))
	}
	if c.Timeout <= 0 {
		return fmt.Errorf("hdlc: timeout must be positive, got %v", c.Timeout)
	}
	if c.Timeout < c.RoundTrip {
		return fmt.Errorf("hdlc: timeout %v below round trip %v", c.Timeout, c.RoundTrip)
	}
	if c.MaxTimeouts < 0 {
		return fmt.Errorf("hdlc: negative MaxTimeouts")
	}
	return nil
}

// WithLinkLifetime implements arq.EngineConfig. HDLC has no link-lifetime
// concept — failure supervision is the fixed N2 count — so the lifetime is
// discarded and the config returned unchanged.
func (c Config) WithLinkLifetime(sim.Duration) arq.EngineConfig { return c }

// WithMetrics implements arq.EngineConfig.
func (c Config) WithMetrics(reg *metrics.Registry) arq.EngineConfig {
	c.Metrics = reg
	return c
}

// NewSender implements arq.EngineConfig, in the configuration's own Mode. It
// is the one place the failure callback is installed.
func (c Config) NewSender(sched *sim.Scheduler, wire arq.Wire, m *arq.Metrics, onFailure arq.FailureFunc) arq.SenderHalf {
	s := NewSender(sched, wire, c, m)
	s.SetOnFailure(onFailure)
	return s
}

// NewReceiver implements arq.EngineConfig.
func (c Config) NewReceiver(sched *sim.Scheduler, wire arq.Wire, m *arq.Metrics, deliver arq.DeliverFunc) arq.ReceiverHalf {
	return NewReceiver(sched, wire, c, m, deliver)
}
