// Channel-model registry: the named seam between everything that
// *configures* an error process (CLIs, experiment configs, the shard
// engine, the public facade) and everything that *implements* one. It
// mirrors internal/arq's protocol registry — Register from init(),
// ParseModel errors listing what exists, no silent defaults — so a new
// model reaches every consumer by registering once instead of editing
// five construction sites.
//
// The spec grammar is one line:
//
//	spec  = kind [ ":" param *( "," param ) ]
//	param = key "=" value
//	kind  = "perfect" | "fixed" | "bsc" | "ge" | "burst" | "trace" | ...
//
// e.g. "fixed:p=0.05", "bsc:ber=1e-5,fec=hamming74",
// "ge:gber=1e-7,bber=2e-3,mgood=40ms,mbad=4ms", "trace:file=run.trc".
// Durations use Go syntax ("40ms"); FEC schemes are named (fec.Named). The
// kind is resolved and the parameter list read by internal/spec, the kit the
// fault-schedule grammar sits on too: unknown kinds, unknown keys, duplicate
// keys, and malformed or out-of-range values are hard errors.
package channel

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/fec"
	"repro/internal/spec"
)

// Model is a parsed spec bound to a factory. New builds a FRESH ErrorModel
// instance per call — load-bearing for stateful models: a Gilbert-Elliott
// sojourn process or a replay cursor shared across two pipes would couple
// their error processes and break determinism under resharding, so every
// pipe instantiates its own.
type Model struct {
	spec string
	make func() ErrorModel
}

// Spec returns the text the model was parsed from.
func (m Model) Spec() string { return m.spec }

// String returns the spec.
func (m Model) String() string { return m.spec }

// New instantiates a fresh ErrorModel. The zero Model panics (wiring-time
// misuse, like arq's zero Engine).
func (m Model) New() ErrorModel {
	if m.make == nil {
		panic("channel: New on zero Model (build with ParseModel)")
	}
	return m.make()
}

// scheme reads the fec= key as a named FEC scheme (fec.Named; absent:
// uncoded). An unknown name is a hard error carrying the known-scheme list.
func scheme(p *spec.Params) fec.Scheme {
	s, err := fec.Named(p.Text("fec", "none"))
	if err != nil {
		p.Failf("%v", err)
	}
	return s
}

// ModelRegistration describes one channel model in the registry.
type ModelRegistration struct {
	// Kind is the canonical spec keyword ("fixed", "ge", "trace").
	Kind string
	// Aliases are additional accepted spellings.
	Aliases []string
	// Usage is the one-line parameter summary flag help shows.
	Usage string
	// Build reads the parameters, recording what is wrong with them in p,
	// and returns the instance factory, which must return a fresh instance
	// per call (see Model.New). ParseModel discards the factory when p holds
	// an error, including a key Build never read.
	Build func(p *spec.Params) func() ErrorModel
}

var models = spec.NewTable[ModelRegistration]("model kind")

// RegisterModel adds a model to the registry. Models call it from init();
// duplicate kinds panic — the registry is wiring, not configuration.
func RegisterModel(r ModelRegistration) {
	if r.Build == nil {
		panic("channel: incomplete model registration")
	}
	models.Add(r.Kind, r.Aliases, r)
}

// ModelKinds returns the registered canonical kinds, sorted.
func ModelKinds() []string { return models.Names() }

// SpecGrammar returns the one-line usage summary of every registered kind,
// for flag help.
func SpecGrammar() string {
	parts := models.Names()
	for i, k := range parts {
		reg, _ := models.Lookup(k)
		parts[i] = reg.Usage
	}
	return strings.Join(parts, " | ")
}

// ParseModel parses a model spec ("kind" or "kind:k=v,..."). Unknown
// kinds error listing what is registered; duplicate keys, unknown keys,
// and malformed values are hard errors.
func ParseModel(text string) (Model, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return Model{}, fmt.Errorf("channel: empty model spec")
	}
	kind, params, _ := strings.Cut(text, ":")
	reg, err := models.Lookup(kind)
	if err != nil {
		return Model{}, fmt.Errorf("channel: %w", err)
	}
	p := spec.Parse(reg.Kind, params)
	factory := reg.Build(p)
	if err := p.Done(); err != nil {
		return Model{}, fmt.Errorf("channel: %w", err)
	}
	return Model{spec: text, make: factory}, nil
}

// MustParseModel is ParseModel, panicking on error (wiring-time misuse).
func MustParseModel(spec string) Model {
	m, err := ParseModel(spec)
	if err != nil {
		panic(err)
	}
	return m
}

// ModelFactory parses spec once and returns its Model.New, the per-pipe
// instance factory a harness building many pipes from one spec holds. The
// empty spec is the perfect channel.
func ModelFactory(spec string) (func() ErrorModel, error) {
	if spec == "" {
		return func() ErrorModel { return Perfect{} }, nil
	}
	m, err := ParseModel(spec)
	if err != nil {
		return nil, err
	}
	return m.New, nil
}

// FrameErrorProb returns the closed-form per-frame error probability of the
// model spec names, through the AnalyticModel capability of a transient
// instance. A model without it has no such number and the honest answer is
// NaN — a silent 0 would make every other channel read as error-free in the
// analytic columns. A malformed spec panics, as in NewPipe.
func FrameErrorProb(spec string) float64 {
	if am, ok := specModel(spec).(AnalyticModel); ok {
		return am.MeanFrameErrorProb()
	}
	return math.NaN()
}

// LegacySpecs maps the historical CLI error knobs onto model specs: fixed
// P_F/P_C unless pf is negative (unset), otherwise a non-zero BER through
// the link FEC stack (assumption 4: Hamming(7,4) under I-frames, the
// stronger repetition code under control frames), otherwise a perfect
// channel (empty specs). "Unset" is tested, not "set": a NaN or a negative
// BER lands in a spec the parser rejects instead of reading as a perfect
// channel. This is the single home of the per-frame-class FEC defaults the
// CLIs used to hardcode separately.
func LegacySpecs(ber, pf, pc float64) (imodel, cmodel string) {
	switch {
	case !(pf < 0):
		if pc < 0 {
			pc = 0
		}
		return fmt.Sprintf("fixed:p=%g", pf), fmt.Sprintf("fixed:p=%g", pc)
	case ber != 0:
		return fmt.Sprintf("bsc:ber=%g,fec=hamming74", ber),
			fmt.Sprintf("bsc:ber=%g,fec=rep3", ber)
	}
	return "", ""
}

// The in-tree models. Every factory call returns an instance of its own;
// for the immutable value types (Perfect, FixedProb) that is a copy of one
// boxed value, so a harness instantiating a spec once per pipe (≈ 8 k pipes
// in a 1,024-satellite build) pays no allocation for them.
func init() {
	RegisterModel(ModelRegistration{
		Kind:  "perfect",
		Usage: "perfect",
		Build: func(*spec.Params) func() ErrorModel {
			return func() ErrorModel { return Perfect{} }
		},
	})
	RegisterModel(ModelRegistration{
		Kind:  "fixed",
		Usage: "fixed:p=",
		Build: func(p *spec.Params) func() ErrorModel {
			m := ErrorModel(FixedProb{P: p.RequiredProb("p")})
			return func() ErrorModel { return m }
		},
	})
	RegisterModel(ModelRegistration{
		Kind:  "bsc",
		Usage: "bsc:ber=[,fec=" + strings.Join(fec.Names(), "|") + "]",
		Build: func(p *spec.Params) func() ErrorModel {
			ber, code := p.RequiredProb("ber"), scheme(p)
			return func() ErrorModel { return &BSC{BER: ber, Scheme: code} }
		},
	})
	RegisterModel(ModelRegistration{
		Kind:    "ge",
		Aliases: []string{"gilbert-elliott"},
		Usage:   "ge:gber=,bber=,mgood=,mbad=[,fec=]",
		Build: func(p *spec.Params) func() ErrorModel {
			gber, bber := p.RequiredProb("gber"), p.RequiredProb("bber")
			mgood, mbad := p.RequiredDuration("mgood"), p.RequiredDuration("mbad")
			code := scheme(p)
			if mgood <= 0 || mbad <= 0 {
				p.Failf("sojourns mgood/mbad must be positive")
			}
			return func() ErrorModel {
				return NewGilbertElliott(gber, bber, mgood, mbad, code)
			}
		},
	})
	RegisterModel(ModelRegistration{
		Kind:  "burst",
		Usage: "burst:period=,len=[,offset=,ber=,fec=]",
		Build: func(p *spec.Params) func() ErrorModel {
			period, length := p.RequiredDuration("period"), p.RequiredDuration("len")
			offset, ber, code := p.Duration("offset", 0), p.Prob("ber", 0), scheme(p)
			if period <= 0 {
				p.Failf("period must be positive")
			}
			if length < 0 || length > period {
				p.Failf("len=%v out of [0, period]", length)
			}
			return func() ErrorModel {
				return &BurstTrain{Period: period, BurstLen: length, Offset: offset,
					BaseBER: ber, Scheme: code}
			}
		},
	})
	RegisterModel(ModelRegistration{
		Kind:  "trace",
		Usage: "trace:file=[,stream=,policy=loop|truncate]",
		Build: func(p *spec.Params) func() ErrorModel {
			file, stream := p.RequiredText("file"), p.Text("stream", "")
			// The options in ReplayPolicy order: the index is the policy.
			policy := ReplayPolicy(p.Choice("policy", int(LoopReplay), "loop", "truncate"))
			if p.Err() != nil {
				return nil
			}
			// The file is loaded once at parse time; every New shares the
			// read-only trace and gets its own cursor.
			set, err := ReadTraceFile(file)
			if err != nil {
				p.Failf("%v", err)
				return nil
			}
			var tr *Trace
			if stream == "" {
				names := set.Names()
				if len(names) != 1 {
					p.Failf("%s holds streams %s; pick one with stream=", file, strings.Join(names, ", "))
					return nil
				}
				tr = set.Get(names[0])
			} else if tr = set.Get(stream); tr == nil {
				p.Failf("%s has no stream %q (streams: %s)", file, stream, strings.Join(set.Names(), ", "))
			}
			return func() ErrorModel { return NewReplay(tr, policy) }
		},
	})
}
