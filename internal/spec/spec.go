// Package spec is the kit under the small grammars a user types at this
// repository — engine names (-proto), channel-model specs (-imodel/-cmodel),
// FEC names (fec=) and fault schedules (-faults): a Table resolves a name, a
// Params reads a "k=v,k=v" list. Both are strict, because a spec the parser
// merely shrugs at is a run measuring the wrong channel: an unknown name
// errors listing what exists, and a parameter list is rejected for an entry
// without '=', a repeated key, a malformed, non-finite or out-of-range value,
// or a key nobody read.
//
// The package imports the standard library only; its errors carry no package
// prefix, each caller adds its own.
package spec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Table is a case-insensitive name table: canonical names and aliases
// resolving to values of one type. Tables are filled at start-up (init
// functions, package variables) and only read afterwards.
type Table[V any] struct {
	what  string
	byKey map[string]V
	names []string // canonical, sorted
}

// NewTable returns an empty table of things called what ("protocol", "model
// kind"), the noun its errors use.
func NewTable[V any](what string) *Table[V] {
	return &Table[V]{what: what, byKey: make(map[string]V)}
}

// Add enters v under its canonical name and any aliases. A name entered
// twice panics: tables are wiring, not configuration.
func (t *Table[V]) Add(canonical string, aliases []string, v V) {
	for _, name := range append([]string{canonical}, aliases...) {
		key := strings.ToLower(name)
		if _, dup := t.byKey[key]; dup || key == "" {
			panic(fmt.Sprintf("spec: duplicate or empty %s %q", t.what, name))
		}
		t.byKey[key] = v
	}
	t.names = append(t.names, canonical)
	sort.Strings(t.names)
}

// Lookup resolves a name (canonical or alias, any case, surrounding space
// ignored). An unknown name errors listing the canonical ones — no silent
// default.
func (t *Table[V]) Lookup(name string) (V, error) {
	name = strings.TrimSpace(name)
	v, ok := t.byKey[strings.ToLower(name)]
	if !ok {
		return v, fmt.Errorf("unknown %s %q (registered: %s)", t.what, name, strings.Join(t.names, ", "))
	}
	return v, nil
}

// Names returns the canonical names, sorted.
func (t *Table[V]) Names() []string {
	return append([]string(nil), t.names...)
}

// Params is a parsed "k=v,k=v" parameter list. The typed getters return the
// default when the key is absent, record the first error and mark the key
// read; Done then reports that error, or the first key no getter asked for —
// so a misspelt key and a key that does not apply to this kind are the same
// hard error, and a builder cannot forget either check.
type Params struct {
	kind string
	kv   []param
	buf  [4]param // backs kv for the common short list
	err  error
}

type param struct {
	key, val string
	read     bool
}

// Parse splits text into parameters of the given kind (the prefix of every
// error). Space around entries, keys and values is ignored, as are empty
// entries; an entry without '=' and a repeated key — a spec that says p twice
// is a spec its author mis-edited, not last-wins — are recorded as the first
// error.
func Parse(kind, text string) *Params {
	p := &Params{kind: kind}
	p.kv = p.buf[:0]
	for text != "" {
		var part string
		part, text, _ = strings.Cut(text, ",")
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			p.Failf("parameter %q lacks '='", part)
			break
		}
		key = strings.TrimSpace(key)
		if _, dup := p.find(key); dup {
			p.Failf("duplicate parameter %q", key)
			break
		}
		p.kv = append(p.kv, param{key: key, val: strings.TrimSpace(val)})
	}
	return p
}

func (p *Params) find(key string) (*param, bool) {
	for i := range p.kv {
		if p.kv[i].key == key {
			return &p.kv[i], true
		}
	}
	return nil, false
}

// Failf records an error against the list unless one is already recorded:
// the range checks a builder makes on top of the getters land in the same
// place as theirs.
func (p *Params) Failf(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("%s: %s", p.kind, fmt.Sprintf(format, args...))
	}
}

// Err returns the first recorded error.
func (p *Params) Err() error { return p.err }

// Done returns the first recorded error, or an unknown-parameter error for
// the first key no getter read.
func (p *Params) Done() error {
	for _, kv := range p.kv {
		if !kv.read {
			p.Failf("unknown parameter %q", kv.key)
		}
	}
	return p.err
}

func (p *Params) require(key string) {
	if _, ok := p.find(key); !ok {
		p.Failf("missing required parameter %q", key)
	}
}

// value is the one getter body: absent → def, parse failure → recorded.
func value[T any](p *Params, key string, def T, parse func(string) (T, error)) T {
	kv, ok := p.find(key)
	if !ok {
		return def
	}
	kv.read = true
	v, err := parse(kv.val)
	if err != nil {
		p.Failf("bad %s %q", key, kv.val)
		return def
	}
	return v
}

// Text returns the key's raw value.
func (p *Params) Text(key, def string) string {
	return value(p, key, def, func(s string) (string, error) { return s, nil })
}

// Float returns the key as a finite float64.
func (p *Params) Float(key string, def float64) float64 {
	return value(p, key, def, func(s string) (float64, error) {
		f, err := strconv.ParseFloat(s, 64)
		if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
			err = strconv.ErrRange
		}
		return f, err
	})
}

// Prob returns the key as a probability: a float64 in [0,1].
func (p *Params) Prob(key string, def float64) float64 {
	f := p.Float(key, def)
	if f < 0 || f > 1 {
		p.Failf("%s=%g out of [0,1]", key, f)
	}
	return f
}

// Duration returns the key as a Go-syntax duration ("40ms").
func (p *Params) Duration(key string, def time.Duration) time.Duration {
	return value(p, key, def, time.ParseDuration)
}

// Int returns the key as a non-negative decimal count.
func (p *Params) Int(key string, def int) int {
	return value(p, key, def, func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err == nil && n < 0 {
			err = strconv.ErrRange
		}
		return n, err
	})
}

// Uint32 returns the key as a decimal uint32.
func (p *Params) Uint32(key string, def uint32) uint32 {
	return value(p, key, def, func(s string) (uint32, error) {
		n, err := strconv.ParseUint(s, 10, 32)
		return uint32(n), err
	})
}

// Bool returns the key as a boolean (strconv.ParseBool spellings).
func (p *Params) Bool(key string, def bool) bool {
	return value(p, key, def, strconv.ParseBool)
}

// Choice returns the index in options of the key's value; any other value is
// an error naming the options.
func (p *Params) Choice(key string, def int, options ...string) int {
	kv, ok := p.find(key)
	if !ok {
		return def
	}
	kv.read = true
	for i, o := range options {
		if kv.val == o {
			return i
		}
	}
	p.Failf("bad %s %q (want %s)", key, kv.val, strings.Join(options, " | "))
	return def
}

// RequiredProb is Prob with a missing key as an error.
func (p *Params) RequiredProb(key string) float64 { p.require(key); return p.Prob(key, 0) }

// RequiredDuration is Duration with a missing key as an error.
func (p *Params) RequiredDuration(key string) time.Duration {
	p.require(key)
	return p.Duration(key, 0)
}

// RequiredText is Text with a missing key as an error.
func (p *Params) RequiredText(key string) string { p.require(key); return p.Text(key, "") }
