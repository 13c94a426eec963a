package arq

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/spec"
)

// EngineConfig is the protocol-specific configuration a registered engine
// consumes. Concrete types are lamsdlc.Config, hdlc.Config and ssarq.Config;
// the interface carries only what protocol-agnostic layers need: validation,
// the link-lifetime hint the session layer sets per pass, and the factory
// for the engine's two halves. The factory is a method of the configuration
// rather than a registry lookup by its type because hdlc.Config serves two
// registrations (srhdlc, gbn) and its own Mode decides which one it builds.
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
	// New builds a wired pair: the sender entity (I-frame source, driving
	// link.AtoB) on sendSched, the receiver entity (driving link.BtoA) on
	// recvSched. The two are the same scheduler except for a crosslink
	// session the shard engine homes on two shards; see PairMetrics for
	// what that changes. cfg must have the engine's own configuration type
	// (what Defaults and Configure return); deliver and onFailure may be nil.
	New func(sendSched, recvSched *sim.Scheduler, link *channel.Link, cfg EngineConfig, deliver DeliverFunc, onFailure FailureFunc) Pair
	// accepts reports a cfg of another engine's type as an error.
	accepts func(cfg EngineConfig) error
}

var registry = spec.NewTable[Registration]("protocol")

// Register adds an engine to the registry: r carries its names, and the
// three typed functions fill r.Defaults, r.Configure and r.New — this is the
// one place an engine's concrete configuration type C is asserted. Engines
// call it from init() (blank-import repro/internal/engines to link every
// implementation in). Duplicate names panic: the registry is wiring, not
// configuration.
func Register[C EngineConfig, P Pair](r Registration,
	defaults func(roundTrip sim.Duration) C,
	configure func(k Knobs) C,
	newPair func(sendSched, recvSched *sim.Scheduler, link *channel.Link, cfg C, deliver DeliverFunc, onFailure FailureFunc) P,
) {
	if r.Name == "" || defaults == nil || configure == nil || newPair == nil {
		panic("arq: incomplete engine registration")
	}
	r.Defaults = func(roundTrip sim.Duration) EngineConfig { return defaults(roundTrip) }
	r.Configure = func(k Knobs) EngineConfig { return configure(k) }
	r.New = func(sendSched, recvSched *sim.Scheduler, link *channel.Link, cfg EngineConfig, deliver DeliverFunc, onFailure FailureFunc) Pair {
		return newPair(sendSched, recvSched, link, cfg.(C), deliver, onFailure)
	}
	r.accepts = func(cfg EngineConfig) error {
		if _, ok := cfg.(C); !ok {
			var want C
			return fmt.Errorf("arq: engine %q given %T, want %T", r.Name, cfg, want)
		}
		return nil
	}
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

// Engine binds a registered protocol to a concrete configuration: the
// value the node and session layers carry instead of a lamsdlc.Config.
// The zero Engine is invalid; build one with NewEngine or MustEngine.
type Engine struct {
	reg Registration
	cfg EngineConfig
}

// NewEngine resolves name and validates cfg, which must be of the named
// engine's own configuration type.
func NewEngine(name string, cfg EngineConfig) (Engine, error) {
	r, err := ParseProtocol(name)
	if err != nil {
		return Engine{}, err
	}
	e := Engine{reg: r, cfg: cfg}
	if err := e.Validate(); err != nil {
		return Engine{}, err
	}
	return e, nil
}

// MustEngine is NewEngine, panicking on error (wiring-time misuse).
func MustEngine(name string, cfg EngineConfig) Engine {
	e, err := NewEngine(name, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// DefaultEngine returns the named engine with its default configuration
// for the given round trip.
func DefaultEngine(name string, roundTrip sim.Duration) (Engine, error) {
	r, err := ParseProtocol(name)
	if err != nil {
		return Engine{}, err
	}
	return Engine{reg: r, cfg: r.Defaults(roundTrip)}, nil
}

// Name returns the canonical engine name; empty for the zero Engine.
func (e Engine) Name() string { return e.reg.Name }

// Display returns the human label for tables.
func (e Engine) Display() string { return e.reg.Display }

// Config returns the bound configuration.
func (e Engine) Config() EngineConfig { return e.cfg }

// Validate reports whether the engine is usable: registered, configured,
// the configuration of the engine's own type and itself valid.
func (e Engine) Validate() error {
	if e.reg.Name == "" {
		return fmt.Errorf("arq: zero Engine (build with NewEngine)")
	}
	if e.cfg == nil {
		return fmt.Errorf("arq: engine %q has no configuration", e.reg.Name)
	}
	if err := e.reg.accepts(e.cfg); err != nil {
		return err
	}
	return e.cfg.Validate()
}

// WithLinkLifetime returns the engine with the configuration's remaining
// link lifetime set (no-op for engines without lifetime awareness).
func (e Engine) WithLinkLifetime(d sim.Duration) Engine {
	e.cfg = e.cfg.WithLinkLifetime(d)
	return e
}

// NewPair builds a wired pair over link with this engine's configuration,
// the sender entity on sendSched and the receiver entity on recvSched
// (the same scheduler everywhere but across a shard boundary).
func (e Engine) NewPair(sendSched, recvSched *sim.Scheduler, link *channel.Link, deliver DeliverFunc, onFailure FailureFunc) Pair {
	if e.reg.New == nil {
		panic("arq: NewPair on zero Engine")
	}
	return e.reg.New(sendSched, recvSched, link, e.cfg, deliver, onFailure)
}
