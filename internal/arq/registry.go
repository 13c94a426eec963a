package arq

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/spec"
)

// EngineConfig is a registered engine's configuration, and through its half
// factory the engine itself: NewPair and the live driver build every pair
// from one, so a layer that carries it carries the engine. Concrete types
// are lamsdlc.Config, hdlc.Config and ssarq.Config; the interface carries
// only what protocol-agnostic layers need: validation, the link-lifetime
// hint the session layer sets per pass, and the factory for the engine's
// two halves. The factory is a method of the configuration rather than a
// registry lookup by its type because hdlc.Config serves two registrations
// (srhdlc, gbn) and its own Mode decides which one it builds.
type EngineConfig interface {
	// Validate reports the first configuration error.
	Validate() error
	// WithLinkLifetime returns a copy of the configuration with the
	// remaining link lifetime set. Engines without lifetime-aware behavior
	// return the configuration unchanged.
	WithLinkLifetime(d sim.Duration) EngineConfig
	// WithMetrics returns a copy of the configuration whose halves publish
	// their instruments into reg (nil: none).
	WithMetrics(reg *metrics.Registry) EngineConfig
	// NewSender builds the sending half (I-frames out on wire,
	// acknowledgement traffic in through HandleFrame) on sched, counting
	// into m. onFailure may be nil.
	NewSender(sched *sim.Scheduler, wire Wire, m *Metrics, onFailure FailureFunc) SenderHalf
	// NewReceiver builds the receiving half (acknowledgement traffic out on
	// wire). deliver may be nil.
	NewReceiver(sched *sim.Scheduler, wire Wire, m *Metrics, deliver DeliverFunc) ReceiverHalf
}

// Knobs is the protocol-neutral parameter set a harness turns (the
// protocol fields of bench.RunConfig). Each engine's Configure maps the
// knobs that have a counterpart in its own configuration and ignores the
// rest; internal/arq's TestConfigureTable is the written record of
// which is which.
type Knobs struct {
	RoundTrip sim.Duration // R; every engine
	Icp       sim.Duration // checkpoint interval W_cp
	Cdepth    int          // cumulation depth
	W         int          // sliding window
	Alpha     sim.Duration // timeout slack: t_out = R + α
	Stutter   bool         // idle-time stutter retransmission
	N2        int          // timeout retry budget before failure (0 = supervision off)
	Tproc     sim.Duration // per-frame processing time (LAMS-DLC only)
	RecvCap   int          // receive buffer cap (0 = unbounded)
	SendCap   int          // sending buffer cap (0 = unbounded)
	Metrics   *metrics.Registry
}

// Registration describes one ARQ engine in the protocol registry.
type Registration struct {
	// Name is the canonical flag value ("lams", "srhdlc", "gbn").
	Name string
	// Aliases are additional accepted spellings.
	Aliases []string
	// Display is the human label used in tables and CSV ("LAMS-DLC").
	Display string
	// Defaults returns the engine's default configuration for a round trip.
	Defaults func(roundTrip sim.Duration) EngineConfig
	// Configure maps the harness knobs onto the engine's configuration.
	Configure func(k Knobs) EngineConfig
}

var registry = spec.NewTable[Registration]("protocol")

// Register adds an engine to the registry: r carries its names, and the two
// typed functions fill r.Defaults and r.Configure. Engines call it from
// init() (blank-import repro/internal/engines to link every implementation
// in). Duplicate names panic: the registry is wiring, not configuration.
func Register[C EngineConfig](r Registration, defaults func(roundTrip sim.Duration) C, configure func(k Knobs) C) {
	if r.Name == "" || defaults == nil || configure == nil {
		panic("arq: incomplete engine registration")
	}
	r.Defaults = func(roundTrip sim.Duration) EngineConfig { return defaults(roundTrip) }
	r.Configure = func(k Knobs) EngineConfig { return configure(k) }
	registry.Add(r.Name, r.Aliases, r)
}

// Protocols returns the registered canonical engine names, sorted.
func Protocols() []string { return registry.Names() }

// ParseProtocol resolves a protocol name (canonical or alias, case
// insensitive) to its registration. Unknown names error, listing what is
// registered — no silent default.
func ParseProtocol(name string) (Registration, error) {
	r, err := registry.Lookup(name)
	if err != nil {
		return Registration{}, fmt.Errorf("arq: %w", err)
	}
	return r, nil
}
