// Trace-driven channels: record the per-frame corrupt/clean decisions of
// any ErrorModel into a compact binary trace, replay them deterministically
// against a different protocol (Kuhn et al., arXiv 1205.3831: link-layer
// ARQ results are unrealistic without physical-layer error traces), and
// import external two-column (time, error) traces into the same machinery.
//
// Ownership rules:
//
//   - A Trace being RECORDED belongs to exactly one Recorder, and therefore
//     to exactly one pipe in exactly one run: Recorder.Corrupt appends.
//   - A Trace being REPLAYED is read-only and may be shared by any number
//     of concurrent runs; each Replay value is a private cursor. This is
//     what lets a replay batch fan across the bench worker pool.
//   - Replay consumes no RNG draws. A pipe's RNG feeds only its models, so
//     substituting a Replay for a live model never shifts other draws.
package channel

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// TraceRec is one recorded channel decision: the wire occupancy
// [Start, End) and length of a frame, and whether the channel corrupted
// it. In a spans-mode trace (see TraceMode) a record is instead a state
// interval: the channel is errored for [Start, End) when Corrupt is set.
type TraceRec struct {
	Start   sim.Time
	End     sim.Time
	Bits    int
	Corrupt bool
}

// TraceMode says how a trace's records are meant to be replayed.
type TraceMode uint8

const (
	// FrameTrace records one decision per Corrupt call (what a Recorder
	// writes); replay hands decisions back in call order, frame timing
	// ignored — the i-th frame of the replayed run gets the i-th recorded
	// fate.
	FrameTrace TraceMode = iota
	// SpanTrace records time intervals of channel state (what
	// ImportTwoColumn builds); replay corrupts every frame whose wire
	// occupancy overlaps an errored span.
	SpanTrace
)

// Trace is one named stream of records — one pipe-direction/frame-class
// error process ("ab/i", "ba/c", ...).
type Trace struct {
	Name string
	Mode TraceMode
	Recs []TraceRec
}

// TraceSet is a named collection of traces: the record/replay unit (one
// file, one run's four streams).
type TraceSet struct {
	order  []string
	byName map[string]*Trace
}

// NewTraceSet returns an empty set.
func NewTraceSet() *TraceSet {
	return &TraceSet{byName: make(map[string]*Trace)}
}

// Stream returns the named trace, creating an empty frames-mode one on
// first use. Creation mutates the set: call it only from the single run
// that owns a recording set, never concurrently.
func (s *TraceSet) Stream(name string) *Trace {
	if tr, ok := s.byName[name]; ok {
		return tr
	}
	tr := &Trace{Name: name}
	s.byName[name] = tr
	s.order = append(s.order, name)
	return tr
}

// Get returns the named trace or nil. Read-only: safe under concurrent
// replay.
func (s *TraceSet) Get(name string) *Trace { return s.byName[name] }

// Add inserts a built trace (e.g. an import), replacing any same-named one.
func (s *TraceSet) Add(tr *Trace) {
	if _, ok := s.byName[tr.Name]; !ok {
		s.order = append(s.order, tr.Name)
	}
	s.byName[tr.Name] = tr
}

// Names returns the stream names in creation order (the file order).
func (s *TraceSet) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Recorder wraps any ErrorModel and captures its decisions into a trace.
type Recorder struct {
	inner ErrorModel
	tr    *Trace
}

// NewRecorder wraps inner (nil = Perfect), recording into tr.
func NewRecorder(inner ErrorModel, tr *Trace) *Recorder {
	if inner == nil {
		inner = Perfect{}
	}
	tr.Mode = FrameTrace
	return &Recorder{inner: inner, tr: tr}
}

// Corrupt delegates to the wrapped model and appends the decision.
func (r *Recorder) Corrupt(rng *sim.RNG, start, end sim.Time, bits int) bool {
	c := r.inner.Corrupt(rng, start, end, bits)
	r.tr.Recs = append(r.tr.Recs, TraceRec{Start: start, End: end, Bits: bits, Corrupt: c})
	return c
}

func (r *Recorder) String() string {
	return fmt.Sprintf("record(%s->%s)", modelName(r.inner), r.tr.Name)
}

// ReplayPolicy says what a replay does past the end of its trace.
type ReplayPolicy uint8

const (
	// LoopReplay wraps around: frame replay restarts the decision
	// sequence, span replay maps time modulo the trace length — the error
	// process becomes periodic, which keeps long replayed runs under a
	// short trace statistically honest.
	LoopReplay ReplayPolicy = iota
	// TruncateReplay goes clean once the trace runs dry.
	TruncateReplay
)

// Replay plays a trace back as an ErrorModel. Each Replay is a private
// cursor over a shared read-only trace; never share one across pipes.
type Replay struct {
	tr     *Trace
	policy ReplayPolicy
	pos    int // next frame-mode record to consume
}

// NewReplay returns a cursor at the start of tr. A nil or empty trace
// replays as a perfect channel.
func NewReplay(tr *Trace, policy ReplayPolicy) *Replay {
	return &Replay{tr: tr, policy: policy}
}

// Corrupt replays the recorded fate: by call order for frame traces, by
// wire-occupancy overlap for span traces. It draws nothing from rng.
func (r *Replay) Corrupt(_ *sim.RNG, start, end sim.Time, _ int) bool {
	if r.tr == nil || len(r.tr.Recs) == 0 {
		return false
	}
	if r.tr.Mode == SpanTrace {
		return r.corruptSpan(start, end)
	}
	if r.pos >= len(r.tr.Recs) {
		if r.policy == TruncateReplay {
			return false
		}
		r.pos = 0
	}
	c := r.tr.Recs[r.pos].Corrupt
	r.pos++
	return c
}

// corruptSpan reports whether [start, end) overlaps any errored span,
// mapping time modulo the trace length under LoopReplay.
func (r *Replay) corruptSpan(start, end sim.Time) bool {
	if end <= start {
		end = start + 1
	}
	length := r.tr.Recs[len(r.tr.Recs)-1].End
	if length <= 0 || (r.policy == TruncateReplay && start >= length) {
		return false
	}
	if r.policy == LoopReplay && start >= length {
		span := end - start
		start = sim.Time(int64(start) % int64(length))
		end = start + span
	}
	if r.overlapsErrored(start, end) {
		return true
	}
	// A looped frame straddling the wrap point also sees the trace head.
	if r.policy == LoopReplay && end > length {
		return r.overlapsErrored(0, end-length)
	}
	return false
}

func (r *Replay) overlapsErrored(start, end sim.Time) bool {
	recs := r.tr.Recs
	// First span ending after start; spans are sorted and non-overlapping.
	i := sort.Search(len(recs), func(i int) bool { return recs[i].End > start })
	for ; i < len(recs) && recs[i].Start < end; i++ {
		if recs[i].Corrupt {
			return true
		}
	}
	return false
}

func (r *Replay) String() string {
	name := "<nil>"
	if r.tr != nil {
		name = r.tr.Name
	}
	return fmt.Sprintf("replay(%s)", name)
}

func modelName(m ErrorModel) string {
	if s, ok := m.(fmt.Stringer); ok {
		return s.String()
	}
	return fmt.Sprintf("%T", m)
}

// traceMagic opens every trace file: format name + version in 8 bytes.
const traceMagic = "LAMSTRC1"

// Encode serializes the set: magic, stream count, then per stream the
// name, mode, and delta/varint-packed records. Start times within a
// stream must be non-decreasing (every producer here appends in wire
// order) — Encode errors otherwise rather than emit a file ReadTraceSet
// would misparse.
func (s *TraceSet) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(s.order))); err != nil {
		return err
	}
	for _, name := range s.order {
		tr := s.byName[name]
		if err := putUvarint(uint64(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(tr.Mode)); err != nil {
			return err
		}
		if err := putUvarint(uint64(len(tr.Recs))); err != nil {
			return err
		}
		var prev sim.Time
		for _, rec := range tr.Recs {
			if rec.Start < prev || rec.End < rec.Start || rec.Bits < 0 {
				return fmt.Errorf("channel: trace stream %q not in wire order", name)
			}
			if err := putUvarint(uint64(rec.Start - prev)); err != nil {
				return err
			}
			if err := putUvarint(uint64(rec.End - rec.Start)); err != nil {
				return err
			}
			if err := putUvarint(uint64(rec.Bits)); err != nil {
				return err
			}
			var flags byte
			if rec.Corrupt {
				flags = 1
			}
			if err := bw.WriteByte(flags); err != nil {
				return err
			}
			prev = rec.Start
		}
	}
	return bw.Flush()
}

// WriteFile serializes the set to path.
func (s *TraceSet) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Limits on what ReadTraceSet takes from a file's length fields: nothing is
// allocated from an untrusted count. Stream names are a few bytes ("ab/i"),
// and a record count only pre-sizes up to tracePrealloc records — the rest
// grows as records actually arrive, so memory stays proportional to the input.
const (
	maxTraceName  = 256
	tracePrealloc = 1024
)

// ReadTraceSet parses a serialized set. Input from outside the program: a
// length it cannot back with bytes, or a time or size that overflows, is an
// error, never a panic.
func ReadTraceSet(r io.Reader) (*TraceSet, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("channel: trace header: %v", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("channel: not a trace file (magic %q)", magic)
	}
	nstreams, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("channel: trace stream count: %v", err)
	}
	// field reads one record field, which must fit what is left of the int64
	// it lands in; the first failure of a record is kept in ferr.
	var ferr error
	field := func(limit int64) int64 {
		v, err := binary.ReadUvarint(br)
		if err == nil && v > uint64(limit) {
			err = fmt.Errorf("value %d overflows", v)
		}
		if ferr == nil {
			ferr = err
		}
		return int64(v)
	}
	set := NewTraceSet()
	for si := uint64(0); si < nstreams; si++ {
		nameLen, err := binary.ReadUvarint(br)
		if err == nil && nameLen > maxTraceName {
			err = fmt.Errorf("%d bytes long (limit %d)", nameLen, maxTraceName)
		}
		if err != nil {
			return nil, fmt.Errorf("channel: trace stream name: %v", err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("channel: trace stream name: %v", err)
		}
		mode, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("channel: trace stream mode: %v", err)
		}
		if TraceMode(mode) > SpanTrace {
			return nil, fmt.Errorf("channel: trace stream %q: unknown mode %d", name, mode)
		}
		nrecs, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("channel: trace stream %q: %v", name, err)
		}
		tr := set.Stream(string(name))
		tr.Mode = TraceMode(mode)
		tr.Recs = make([]TraceRec, 0, min(nrecs, tracePrealloc))
		var prev sim.Time
		for ri := uint64(0); ri < nrecs; ri++ {
			start := prev + sim.Time(field(math.MaxInt64-int64(prev)))
			end := start + sim.Time(field(math.MaxInt64-int64(start)))
			bits := int(field(math.MaxInt))
			flags, err := br.ReadByte()
			if ferr != nil {
				err = ferr
			}
			if err != nil {
				return nil, fmt.Errorf("channel: trace stream %q record %d: %v", name, ri, err)
			}
			tr.Recs = append(tr.Recs, TraceRec{Start: start, End: end, Bits: bits, Corrupt: flags&1 != 0})
			prev = start
		}
	}
	return set, nil
}

// ReadTraceFile parses the trace file at path.
func ReadTraceFile(path string) (*TraceSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTraceSet(f)
}

// ImportTwoColumn parses an external error trace in the two-column form
// physical-layer measurement campaigns publish (Kuhn et al.,
// arXiv 1205.3831): one line per channel-state change,
//
//	<time-seconds> <error-flag 0|1>
//
// with '#' comments and blank lines ignored. Each line opens a state that
// lasts until the next line's timestamp; the final line terminates the
// trace (its flag spans nothing). Timestamps must be non-negative and
// strictly increasing. The result is a spans-mode trace replayable with
// NewReplay or the "trace:" model spec.
func ImportTwoColumn(r io.Reader, name string) (*Trace, error) {
	tr := &Trace{Name: name, Mode: SpanTrace}
	sc := bufio.NewScanner(r)
	lineNo := 0
	havePrev := false
	var prevAt sim.Time
	var prevErr bool
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("channel: trace line %d: want \"<seconds> <0|1>\", got %q", lineNo, line)
		}
		// NaN fails every comparison, so the range is tested as what is
		// accepted; 2^63 ns is the first instant a sim.Time cannot hold.
		secs, err := strconv.ParseFloat(fields[0], 64)
		ns := secs * float64(sim.Second)
		if err != nil || !(ns >= 0 && ns < 1<<63) {
			return nil, fmt.Errorf("channel: trace line %d: bad time %q", lineNo, fields[0])
		}
		at := sim.Time(ns)
		var flag bool
		switch fields[1] {
		case "0":
		case "1":
			flag = true
		default:
			return nil, fmt.Errorf("channel: trace line %d: bad error flag %q", lineNo, fields[1])
		}
		if havePrev {
			if at <= prevAt {
				return nil, fmt.Errorf("channel: trace line %d: time not increasing", lineNo)
			}
			tr.Recs = append(tr.Recs, TraceRec{Start: prevAt, End: at, Corrupt: prevErr})
		}
		havePrev, prevAt, prevErr = true, at, flag
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(tr.Recs) == 0 {
		return nil, fmt.Errorf("channel: trace %q: fewer than two data lines", name)
	}
	return tr, nil
}
