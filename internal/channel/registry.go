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
// Durations use Go syntax ("40ms"); FEC schemes are named (fec.Named).
// Unknown kinds, unknown keys, duplicate keys, and malformed values are
// hard errors, like the fault-schedule grammar: a spec the parser merely
// shrugs at is a run measuring the wrong channel.
package channel

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fec"
	"repro/internal/sim"
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

// Params is the typed view of a spec's key=value list a model builder
// reads. Getters record the first error and mark keys used; ParseModel
// rejects any key no getter consumed, so builders never see (and users
// cannot silently misspell) unknown parameters.
type Params struct {
	kind string
	vals map[string]string
	used map[string]bool
	err  error
}

func (p *Params) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first getter error.
func (p *Params) Err() error { return p.err }

func (p *Params) lookup(key string) (string, bool) {
	v, ok := p.vals[key]
	if ok {
		p.used[key] = true
	}
	return v, ok
}

// Float returns the key as a float64, or def when absent.
func (p *Params) Float(key string, def float64) float64 {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		p.fail("%s: bad %s %q", p.kind, key, v)
		return def
	}
	return f
}

// RequiredFloat is Float with a missing key as a hard error.
func (p *Params) RequiredFloat(key string) float64 {
	if _, ok := p.vals[key]; !ok {
		p.fail("%s: missing required parameter %q", p.kind, key)
		return 0
	}
	return p.Float(key, 0)
}

// Duration returns the key as a Go-syntax duration, or def when absent.
func (p *Params) Duration(key string, def sim.Duration) sim.Duration {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		p.fail("%s: bad %s %q", p.kind, key, v)
		return def
	}
	return sim.Duration(d)
}

// RequiredDuration is Duration with a missing key as a hard error.
func (p *Params) RequiredDuration(key string) sim.Duration {
	if _, ok := p.vals[key]; !ok {
		p.fail("%s: missing required parameter %q", p.kind, key)
		return 0
	}
	return p.Duration(key, 0)
}

// Text returns the key's raw value, or def when absent.
func (p *Params) Text(key, def string) string {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	return v
}

// RequiredText is Text with a missing key as a hard error.
func (p *Params) RequiredText(key string) string {
	if _, ok := p.vals[key]; !ok {
		p.fail("%s: missing required parameter %q", p.kind, key)
		return ""
	}
	return p.Text(key, "")
}

// Scheme resolves the key as a named FEC scheme (fec.Named), or def when
// absent. An unknown name is a hard error carrying the known-scheme list.
func (p *Params) Scheme(key string, def fec.Scheme) fec.Scheme {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	s, err := fec.Named(v)
	if err != nil {
		p.fail("%s: %v", p.kind, err)
		return def
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
	// Build validates the parameters and returns the instance factory.
	// The factory must return a fresh instance per call (see Model.New).
	Build func(p *Params) (func() ErrorModel, error)
}

var (
	modelRegistry = make(map[string]ModelRegistration)
	modelKinds    []string // canonical kinds, sorted
)

// RegisterModel adds a model to the registry. Models call it from init();
// duplicate kinds panic — the registry is wiring, not configuration.
func RegisterModel(r ModelRegistration) {
	if r.Kind == "" || r.Build == nil {
		panic("channel: incomplete model registration")
	}
	for _, key := range append([]string{r.Kind}, r.Aliases...) {
		key = strings.ToLower(key)
		if _, dup := modelRegistry[key]; dup {
			panic(fmt.Sprintf("channel: duplicate model registration %q", key))
		}
		modelRegistry[key] = r
	}
	modelKinds = append(modelKinds, r.Kind)
	sort.Strings(modelKinds)
}

// ModelKinds returns the registered canonical kinds, sorted.
func ModelKinds() []string {
	out := make([]string, len(modelKinds))
	copy(out, modelKinds)
	return out
}

// SpecGrammar returns the one-line usage summary of every registered kind,
// for flag help.
func SpecGrammar() string {
	parts := make([]string, 0, len(modelKinds))
	for _, k := range modelKinds {
		parts = append(parts, modelRegistry[k].Usage)
	}
	return strings.Join(parts, " | ")
}

// ParseModel parses a model spec ("kind" or "kind:k=v,..."). Unknown
// kinds error listing what is registered; duplicate keys, unknown keys,
// and malformed values are hard errors.
func ParseModel(spec string) (Model, error) {
	text := strings.TrimSpace(spec)
	if text == "" {
		return Model{}, fmt.Errorf("channel: empty model spec")
	}
	kindStr, paramText, hasParams := strings.Cut(text, ":")
	kindStr = strings.TrimSpace(kindStr)
	reg, ok := modelRegistry[strings.ToLower(kindStr)]
	if !ok {
		return Model{}, fmt.Errorf("channel: unknown model kind %q (registered: %s)",
			kindStr, strings.Join(ModelKinds(), ", "))
	}
	p := &Params{kind: reg.Kind, vals: make(map[string]string), used: make(map[string]bool)}
	if hasParams {
		for _, part := range strings.Split(paramText, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			key, val, ok := strings.Cut(part, "=")
			if !ok {
				return Model{}, fmt.Errorf("channel: %s: parameter %q lacks '='", reg.Kind, part)
			}
			key = strings.TrimSpace(key)
			// A repeated key is a hard error, not last-wins: a spec that
			// says p twice is a spec the author mis-edited.
			if _, dup := p.vals[key]; dup {
				return Model{}, fmt.Errorf("channel: %s: duplicate parameter %q", reg.Kind, key)
			}
			p.vals[key] = strings.TrimSpace(val)
		}
	}
	factory, err := reg.Build(p)
	if err == nil {
		err = p.err
	}
	if err != nil {
		return Model{}, fmt.Errorf("channel: %v", err)
	}
	for key := range p.vals {
		if !p.used[key] {
			return Model{}, fmt.Errorf("channel: %s: unknown parameter %q", reg.Kind, key)
		}
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
// P_F/P_C when pf >= 0, otherwise a BER through the link FEC stack
// (assumption 4: Hamming(7,4) under I-frames, the stronger repetition
// code under control frames), otherwise a perfect channel (empty specs).
// This is the single home of the per-frame-class FEC defaults the CLIs
// used to hardcode separately.
func LegacySpecs(ber, pf, pc float64) (imodel, cmodel string) {
	switch {
	case pf >= 0:
		if pc < 0 {
			pc = 0
		}
		return fmt.Sprintf("fixed:p=%g", pf), fmt.Sprintf("fixed:p=%g", pc)
	case ber > 0:
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
		Build: func(p *Params) (func() ErrorModel, error) {
			return func() ErrorModel { return Perfect{} }, nil
		},
	})
	RegisterModel(ModelRegistration{
		Kind:  "fixed",
		Usage: "fixed:p=",
		Build: func(p *Params) (func() ErrorModel, error) {
			prob := p.RequiredFloat("p")
			if p.err == nil && (prob < 0 || prob > 1) {
				return nil, fmt.Errorf("fixed: p=%g out of [0,1]", prob)
			}
			m := ErrorModel(FixedProb{P: prob})
			return func() ErrorModel { return m }, nil
		},
	})
	RegisterModel(ModelRegistration{
		Kind:  "bsc",
		Usage: "bsc:ber=[,fec=" + strings.Join(fec.Names(), "|") + "]",
		Build: func(p *Params) (func() ErrorModel, error) {
			ber := p.RequiredFloat("ber")
			scheme := p.Scheme("fec", fec.Uncoded)
			if p.err == nil && (ber < 0 || ber > 1) {
				return nil, fmt.Errorf("bsc: ber=%g out of [0,1]", ber)
			}
			return func() ErrorModel { return &BSC{BER: ber, Scheme: scheme} }, nil
		},
	})
	RegisterModel(ModelRegistration{
		Kind:    "ge",
		Aliases: []string{"gilbert-elliott"},
		Usage:   "ge:gber=,bber=,mgood=,mbad=[,fec=]",
		Build: func(p *Params) (func() ErrorModel, error) {
			gber := p.RequiredFloat("gber")
			bber := p.RequiredFloat("bber")
			mgood := p.RequiredDuration("mgood")
			mbad := p.RequiredDuration("mbad")
			scheme := p.Scheme("fec", fec.Uncoded)
			if p.err == nil && (mgood <= 0 || mbad <= 0) {
				return nil, fmt.Errorf("ge: sojourns mgood/mbad must be positive")
			}
			return func() ErrorModel {
				return NewGilbertElliott(gber, bber, mgood, mbad, scheme)
			}, nil
		},
	})
	RegisterModel(ModelRegistration{
		Kind:  "burst",
		Usage: "burst:period=,len=[,offset=,ber=,fec=]",
		Build: func(p *Params) (func() ErrorModel, error) {
			period := p.RequiredDuration("period")
			length := p.RequiredDuration("len")
			offset := p.Duration("offset", 0)
			ber := p.Float("ber", 0)
			scheme := p.Scheme("fec", fec.Uncoded)
			if p.err == nil && period <= 0 {
				return nil, fmt.Errorf("burst: period must be positive")
			}
			if p.err == nil && (length < 0 || length > period) {
				return nil, fmt.Errorf("burst: len=%v out of [0, period]", length)
			}
			return func() ErrorModel {
				return &BurstTrain{Period: period, BurstLen: length, Offset: offset,
					BaseBER: ber, Scheme: scheme}
			}, nil
		},
	})
	RegisterModel(ModelRegistration{
		Kind:  "trace",
		Usage: "trace:file=[,stream=,policy=loop|truncate]",
		Build: func(p *Params) (func() ErrorModel, error) {
			file := p.RequiredText("file")
			stream := p.Text("stream", "")
			policy := LoopReplay
			switch p.Text("policy", "loop") {
			case "loop":
			case "truncate":
				policy = TruncateReplay
			default:
				return nil, fmt.Errorf("trace: bad policy %q (want loop or truncate)", p.vals["policy"])
			}
			if p.err != nil {
				return nil, p.err
			}
			// The file is loaded once at parse time; every New shares the
			// read-only trace and gets its own cursor.
			set, err := ReadTraceFile(file)
			if err != nil {
				return nil, fmt.Errorf("trace: %v", err)
			}
			var tr *Trace
			if stream == "" {
				names := set.Names()
				if len(names) != 1 {
					return nil, fmt.Errorf("trace: %s holds streams %s; pick one with stream=",
						file, strings.Join(names, ", "))
				}
				tr = set.Get(names[0])
			} else if tr = set.Get(stream); tr == nil {
				return nil, fmt.Errorf("trace: %s has no stream %q (streams: %s)",
					file, stream, strings.Join(set.Names(), ", "))
			}
			return func() ErrorModel { return NewReplay(tr, policy) }, nil
		},
	})
}
