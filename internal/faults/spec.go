// Package faults is the deterministic fault-injection harness for the
// recovery machinery: it scripts link outages (full and half-duplex, so
// checkpoints can die while I-frames survive), NAK/checkpoint storms,
// burst-loss episodes, clock-skew windows, handover cut-overs, and — since
// the self-stabilization work — state-corruption attacks (scramble of live
// engine state, ghost-frame forgery, bounded non-FIFO reordering) against a
// channel.Link. Legacy kinds are seed-free schedules — same spec, same run,
// byte for byte, at any worker count; the scramble/ghost adversaries draw
// from a dedicated RNG stream the harness splits only when a schedule needs
// one, so legacy runs keep their exact historical draw sequences.
//
// A Spec is a semicolon-separated list of events:
//
//	kind@start[+dur][:key=value,...]
//
// e.g. "half@2s+500ms:dir=ba; storm@4s+200ms:period=2ms,naks=4". See
// ParseSpec for the kinds and their parameters, and DESIGN.md §9 for the
// fault model. The Injector arms a spec against a run; the Checker
// (checker.go) asserts the paper's §3.2 reliability contract under it.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/spec"
)

// Kind enumerates the fault classes.
type Kind uint8

// Fault kinds.
const (
	// Outage kills both directions for the duration.
	Outage Kind = iota
	// HalfDuplex kills one direction (param dir=ab|ba, default ba — the
	// checkpoint blackout: I-frames survive, acknowledgement dies).
	HalfDuplex
	// Storm injects spurious control frames into one direction every
	// period (params dir=ab|ba default ba, period default W_cp-ish 1ms,
	// naks=N spurious NAK count per frame, serial=S stale serial,
	// enforced=true to forge Enforced-NAKs). Injected frames consume real
	// wire time, so a storm is also a bandwidth attack on control traffic.
	Storm
	// Burst overlays recurring burst-loss episodes on a direction's error
	// process (params dir=ab|ba|both default both, len=burst length
	// default 1ms, gap=inter-burst quiet time default 9ms): every frame
	// whose wire occupancy overlaps a burst is marked corrupted.
	Burst
	// Skew re-times the receiver's checkpoint ticker by factor (param
	// factor, default 1.5) for the duration, then restores it: the
	// sender's silence windows must absorb the drift without spurious
	// recovery or failure.
	Skew
	// Handover models an orbit-driven cut-over: both beams drop for the
	// duration (default 30ms) — a short, sharp outage with its own kind so
	// schedules read like the scenario they script.
	Handover
	// Scramble is the state-corruption adversary (Dolev et al.,
	// arXiv 2006.05901): every period it overwrites a bounded slice of the
	// engine's live protocol state through arq.StateCorruptor (param
	// period, default 10ms). Engines without the capability skip it.
	Scramble
	// Ghost injects well-formed forged frames — CRC-valid bodies with
	// fabricated sequence/serial/ack state — through arq.GhostForger
	// (params dir=ab|ba|both default both, period default 1ms). Forged
	// frames consume real wire time like storm frames.
	Ghost
	// Reorder opens a bounded non-FIFO delivery window on a direction:
	// each frame's arrival gains a deterministic counter-hashed extra
	// delay in [0, jitter) and the pipe's FIFO clamp is suspended (params
	// dir=ab|ba|both default both, jitter default 1ms). Consumes no
	// randomness, like the burst gate.
	Reorder
)

// Corruption reports whether the kind belongs to the state-corruption
// family (scramble, ghost, reorder) the §3.2 checker's convergence rule
// keys off.
func (k Kind) Corruption() bool {
	return k == Scramble || k == Ghost || k == Reorder
}

// String names the kind as the grammar spells it.
func (k Kind) String() string {
	if int(k) < len(kinds) {
		return kinds[k].name
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Dir selects the link direction(s) an event applies to.
type Dir uint8

// Directions. AtoB carries I-frames, BtoA acknowledgement traffic (an
// arq.Pair's checkpoints, for LAMS-DLC).
const (
	Both Dir = iota
	AtoB
	BtoA
)

// dirNames spells the directions in the grammar, indexed by Dir.
var dirNames = []string{Both: "both", AtoB: "ab", BtoA: "ba"}

// String names the direction as the grammar spells it.
func (d Dir) String() string {
	if int(d) < len(dirNames) {
		return dirNames[d]
	}
	return "both"
}

// Event is one scripted fault episode.
type Event struct {
	Kind  Kind
	Start sim.Duration // virtual time the episode opens
	Dur   sim.Duration // episode length (instantaneous kinds get defaults)

	Dir Dir // Outage-family and Storm/Burst direction selector

	// Storm parameters.
	Period   sim.Duration // inter-injection spacing
	NAKs     int          // spurious NAK count per injected checkpoint
	Serial   uint32       // serial carried by injected checkpoints
	Enforced bool         // forge the Enforced bit

	// Burst parameters.
	BurstLen, BurstGap sim.Duration

	// Skew parameter: checkpoint-period multiplier.
	Factor float64

	// Reorder parameter: upper bound (exclusive) on the extra per-frame
	// arrival delay inside the non-FIFO window.
	Jitter sim.Duration
}

// End returns the instant the episode closes.
func (e Event) End() sim.Duration { return e.Start + e.Dur }

// param is one key of a kind's parameter list: how it is read into an Event
// and how Event.String spells it back.
type param struct {
	key  string
	read func(p *spec.Params, e *Event)
	show func(e *Event) string // "" leaves the key out (it is at its default)
}

// duration is a param stored in a Duration field, at least min.
func duration(key string, def, min sim.Duration, field func(*Event) *sim.Duration) param {
	return param{key,
		func(p *spec.Params, e *Event) {
			d := p.Duration(key, def)
			if d < min {
				p.Failf("%s=%v below %v", key, d, min)
			}
			*field(e) = d
		},
		func(e *Event) string { return field(e).String() }}
}

// dirs says which dir= values a kind takes.
type dirs uint8

const (
	noDir  dirs = iota // the kind has no direction selector
	oneWay             // ab or ba
	anyDir             // ab, ba or both
)

// kinds is the fault grammar: one row per Kind with its name, the duration
// and direction an event gets when the schedule gives none, whether dir=
// applies, and the parameters the kind reads. A key not in the row is an
// unknown parameter for that kind.
var kinds = [...]struct {
	name   string
	dur    sim.Duration
	dir    Dir
	dirs   dirs
	params []param
}{
	Outage:     {name: "outage", dur: 100 * sim.Millisecond},
	HalfDuplex: {name: "half", dur: 100 * sim.Millisecond, dir: BtoA, dirs: oneWay},
	Storm: {name: "storm", dur: 100 * sim.Millisecond, dir: BtoA, dirs: anyDir, params: []param{
		period(sim.Millisecond),
		{"naks",
			func(p *spec.Params, e *Event) { e.NAKs = p.Int("naks", 0) },
			func(e *Event) string { return strconv.Itoa(e.NAKs) }},
		{"serial",
			func(p *spec.Params, e *Event) { e.Serial = p.Uint32("serial", 0) },
			func(e *Event) string { return omit(e.Serial == 0, strconv.FormatUint(uint64(e.Serial), 10)) }},
		{"enforced",
			func(p *spec.Params, e *Event) { e.Enforced = p.Bool("enforced", false) },
			func(e *Event) string { return omit(!e.Enforced, "true") }},
	}},
	Burst: {name: "burst", dur: 100 * sim.Millisecond, dirs: anyDir, params: []param{
		duration("len", sim.Millisecond, 1, func(e *Event) *sim.Duration { return &e.BurstLen }),
		duration("gap", 9*sim.Millisecond, 0, func(e *Event) *sim.Duration { return &e.BurstGap }),
	}},
	Skew: {name: "skew", dur: sim.Second, params: []param{
		{"factor",
			func(p *spec.Params, e *Event) {
				if e.Factor = p.Float("factor", 1.5); e.Factor <= 0 {
					p.Failf("factor must be positive")
				}
			},
			func(e *Event) string { return strconv.FormatFloat(e.Factor, 'g', -1, 64) }},
	}},
	Handover: {name: "handover", dur: 30 * sim.Millisecond},
	Scramble: {name: "scramble", dur: 100 * sim.Millisecond, params: []param{period(10 * sim.Millisecond)}},
	Ghost:    {name: "ghost", dur: 100 * sim.Millisecond, dirs: anyDir, params: []param{period(sim.Millisecond)}},
	Reorder: {name: "reorder", dur: 100 * sim.Millisecond, dirs: anyDir, params: []param{
		duration("jitter", sim.Millisecond, 1, func(e *Event) *sim.Duration { return &e.Jitter }),
	}},
}

func period(def sim.Duration) param {
	return duration("period", def, 1, func(e *Event) *sim.Duration { return &e.Period })
}

func omit(atDefault bool, s string) string {
	if atDefault {
		return ""
	}
	return s
}

// kindsByName resolves the grammar's kind keyword, derived from kinds.
var kindsByName = func() *spec.Table[Kind] {
	t := spec.NewTable[Kind]("kind")
	for k, row := range kinds {
		t.Add(row.name, nil, Kind(k))
	}
	return t
}()

// String renders the event in the grammar (round-trips through ParseSpec).
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%s+%s", e.Kind, e.Start, e.Dur)
	if int(e.Kind) >= len(kinds) {
		return b.String()
	}
	row, sep := &kinds[e.Kind], ":"
	add := func(k, v string) {
		b.WriteString(sep + k + "=" + v)
		sep = ","
	}
	// A direction is spelt out unless "both" is also what leaving it out means.
	if row.dirs != noDir && (e.Dir != Both || row.dir != Both) {
		add("dir", e.Dir.String())
	}
	for _, pr := range row.params {
		if v := pr.show(&e); v != "" {
			add(pr.key, v)
		}
	}
	return b.String()
}

// Spec is a complete fault schedule: zero or more events, sorted by start.
type Spec struct {
	Events []Event
}

// String renders the schedule in the grammar.
func (s *Spec) String() string {
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// End returns the instant the last episode closes (0 for an empty spec).
func (s *Spec) End() sim.Duration {
	var end sim.Duration
	for _, e := range s.Events {
		if e.End() > end {
			end = e.End()
		}
	}
	return end
}

// CorruptionWindow returns the span covering every state-corruption event
// (scramble, ghost, reorder). ok is false when the schedule has none — the
// checker's convergence rule then stays dormant.
func (s *Spec) CorruptionWindow() (start, end sim.Duration, ok bool) {
	for _, e := range s.Events {
		if !e.Kind.Corruption() {
			continue
		}
		if !ok || e.Start < start {
			start = e.Start
		}
		if e.End() > end {
			end = e.End()
		}
		ok = true
	}
	return start, end, ok
}

// NeedsRNG reports whether arming the schedule consumes randomness: the
// scramble and ghost adversaries draw, while every legacy kind — and
// reorder, whose jitter is counter-hashed — is purely schedule-driven.
// The harness splits the injector an RNG stream only when this is true, so
// legacy schedules keep their exact historical draw sequences.
func (s *Spec) NeedsRNG() bool {
	for _, e := range s.Events {
		if e.Kind == Scramble || e.Kind == Ghost {
			return true
		}
	}
	return false
}

// Validate reports the first structural error in the schedule. ParseSpec
// runs it on everything it parses; NewInjector runs it again so
// programmatically built Specs meet the same bar. Two classes of error:
// every kind here scripts a window, so a non-positive duration is always a
// mistake; and two same-kind episodes whose windows and directions
// intersect are rejected outright — the half-duplex ref count and the skew
// restore are the subtle casualties, and no schedule legitimately needs the
// same fault twice at once.
func (s *Spec) Validate() error {
	for _, e := range s.Events {
		if int(e.Kind) >= len(kinds) {
			return fmt.Errorf("faults: event %s: unknown kind", e)
		}
		if e.Start < 0 {
			return fmt.Errorf("faults: event %s: negative start", e)
		}
		if e.Dur <= 0 {
			return fmt.Errorf("faults: event %s: non-positive duration", e)
		}
	}
	for i, a := range s.Events {
		for _, b := range s.Events[i+1:] {
			if a.Kind != b.Kind {
				continue
			}
			if a.End() <= b.Start || b.End() <= a.Start {
				continue // half-open windows merely touching are fine
			}
			if !dirsIntersect(a, b) {
				continue
			}
			return fmt.Errorf("faults: overlapping %s events (%s and %s)", a.Kind, a, b)
		}
	}
	return nil
}

// dirsIntersect reports whether two events of one kind contend for the same
// link direction. Kinds without a direction selector always contend.
func dirsIntersect(a, b Event) bool {
	return kinds[a.Kind].dirs == noDir || a.Dir == Both || b.Dir == Both || a.Dir == b.Dir
}

// ParseSpec parses the fault-schedule grammar:
//
//	spec    = event *( ";" event )
//	event   = kind "@" dur [ "+" dur ] [ ":" param *( "," param ) ]
//	param   = key "=" value
//	kind    = "outage" | "half" | "storm" | "burst" | "skew" | "handover" |
//	          "scramble" | "ghost" | "reorder"
//
// Durations use Go syntax ("500ms", "2s"); kind keywords are case
// insensitive. The kinds table holds each kind's parameters and defaults
// (DESIGN.md §9.1 prints it). A key the kind does not read, a repeated key, a
// malformed or out-of-range value (internal/spec) and overlapping same-kind
// episodes (Spec.Validate) are hard errors.
func ParseSpec(text string) (*Spec, error) {
	s := &Spec{}
	for _, part := range strings.Split(text, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		s.Events = append(s.Events, ev)
	}
	sort.SliceStable(s.Events, func(i, j int) bool {
		return s.Events[i].Start < s.Events[j].Start
	})
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseEvent(text string) (Event, error) {
	head, params, _ := strings.Cut(text, ":")
	name, when, ok := strings.Cut(head, "@")
	if !ok {
		return Event{}, fmt.Errorf("faults: event %q lacks '@start'", text)
	}
	kind, err := kindsByName.Lookup(name)
	if err != nil {
		return Event{}, fmt.Errorf("faults: %w", err)
	}
	row := &kinds[kind]
	// Every event carries every parameter's default whatever its kind (the
	// String round trip compares whole Events); a row's own params overwrite
	// theirs below.
	ev := Event{Kind: kind, Dur: row.dur, Dir: row.dir, Period: sim.Millisecond,
		BurstLen: sim.Millisecond, BurstGap: 9 * sim.Millisecond, Factor: 1.5, Jitter: sim.Millisecond}
	p := spec.Parse("event "+strconv.Quote(text), params)
	startStr, durStr, hasDur := strings.Cut(when, "+")
	if ev.Start, err = time.ParseDuration(strings.TrimSpace(startStr)); err != nil {
		p.Failf("bad start: %v", err)
	}
	if hasDur {
		if ev.Dur, err = time.ParseDuration(strings.TrimSpace(durStr)); err != nil {
			p.Failf("bad duration: %v", err)
		}
	}
	// dirNames is indexed by Dir, so the chosen option's index is the Dir —
	// counted from AtoB for the kinds "both" does not apply to.
	switch row.dirs {
	case oneWay:
		ev.Dir = AtoB + Dir(p.Choice("dir", int(row.dir-AtoB), dirNames[AtoB:]...))
	case anyDir:
		ev.Dir = Dir(p.Choice("dir", int(row.dir), dirNames...))
	}
	for _, pr := range row.params {
		pr.read(p, &ev)
	}
	if err := p.Done(); err != nil {
		return Event{}, fmt.Errorf("faults: %w", err)
	}
	return ev, nil
}
