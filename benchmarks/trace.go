package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/workload"
)

// span is one timed interval at a layer boundary. Spans nest: parent is the
// index of the span that was open when this one began (-1 for a root), so
// the spans of one repetition form a tree under that repetition's root.
type span struct {
	name       uint16
	rep        int32
	parent     int32
	start, end int64 // ns since the tracer's epoch
	child      int64 // ns covered by direct children
}

// tracer records spans into a preallocated buffer and aggregates self time
// (duration minus the part covered by child spans) per span name. It is
// single-goroutine, like the simulation it wraps; the live workload guards
// it with its own mutex. A nil *tracer records nothing, and its shims
// return the wrapped value unchanged, so one wiring serves both runs.
type tracer struct {
	epoch time.Time
	names []string
	ids   map[string]uint16
	spans []span
	open  int32 // innermost open span, -1 when none
	rep   int32

	selfNS []int64 // per name, over every folded repetition
	count  []int64
	rootNS int64 // sum of root-span durations
	// jsonl, while open, receives the next folded repetition's spans.
	jsonl   *bufio.Writer
	file    *os.File
	fileErr error
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), ids: map[string]uint16{}, spans: make([]span, 0, capacity), open: -1}
}

func (t *tracer) id(name string) uint16 {
	if t == nil {
		return 0
	}
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.ids[name] = id
	t.names = append(t.names, name)
	t.selfNS = append(t.selfNS, 0)
	t.count = append(t.count, 0)
	return id
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name uint16) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, rep: t.rep, parent: t.open, start: int64(time.Since(t.epoch))})
	t.open = i
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	s := &t.spans[i]
	s.end = int64(time.Since(t.epoch))
	if s.parent >= 0 {
		t.spans[s.parent].child += s.end - s.start
	}
	t.open = s.parent
}

// async records a finished span that overlaps its siblings (an operation in
// flight across goroutines): it hangs under the innermost open span but is
// not subtracted from that span's self time.
func (t *tracer) async(name string, start, end int64) {
	t.spans = append(t.spans, span{name: t.id(name), rep: t.rep, parent: t.open, start: start, end: end})
}

// fold aggregates the buffered spans (one finished repetition), writes them
// to the JSONL file if one is open — then closes it, so the file holds the
// first traced repetition only — and empties the buffer.
func (t *tracer) fold() {
	for i := range t.spans {
		s := &t.spans[i]
		d := s.end - s.start
		t.selfNS[s.name] += d - s.child
		t.count[s.name]++
		if s.parent < 0 {
			t.rootNS += d
		}
		if t.jsonl != nil {
			fmt.Fprintf(t.jsonl, `{"rep":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
				s.rep, i, s.parent, t.names[s.name], s.start, s.end, d-s.child)
		}
	}
	if t.file != nil {
		t.fileErr = t.jsonl.Flush()
		if err := t.file.Close(); t.fileErr == nil {
			t.fileErr = err
		}
		t.file, t.jsonl = nil, nil
	}
	t.spans = t.spans[:0]
	t.open = -1
	t.rep++
}

// writeTo makes the next fold write its spans as JSONL to path; an empty
// path means no file.
func (t *tracer) writeTo(path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.file, t.jsonl = f, bufio.NewWriterSize(f, 1<<20)
	return nil
}

// self returns the total self time and span count recorded under name.
func (t *tracer) self(name string) (ns, n int64) {
	id, ok := t.ids[name]
	if !ok {
		return 0, 0
	}
	return t.selfNS[id], t.count[id]
}

// meanSelfNS is the mean self time per span of the given name.
func (t *tracer) meanSelfNS(name string) float64 {
	ns, n := t.self(name)
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// share is name's self time as a share of all root-span time.
func (t *tracer) share(name string) float64 {
	ns, _ := t.self(name)
	if t.rootNS == 0 {
		return 0
	}
	return float64(ns) / float64(t.rootNS)
}

// The shims below interpose on the repository's public seams. Each returns
// its argument untouched on a nil tracer.

type tracedWire struct {
	arq.Wire
	t    *tracer
	name uint16
}

func (w tracedWire) Send(f *frame.Frame) {
	i := w.t.begin(w.name)
	w.Wire.Send(f)
	w.t.end(i)
}

// wire wraps an outbound wire so every Send is a span.
func (t *tracer) wire(w arq.Wire, name string) arq.Wire {
	if t == nil {
		return w
	}
	return tracedWire{Wire: w, t: t, name: t.id(name)}
}

// handler wraps a pipe's arrival handler (an endpoint's HandleFrame).
func (t *tracer) handler(h channel.Handler, name string) channel.Handler {
	if t == nil {
		return h
	}
	id := t.id(name)
	return func(now sim.Time, f *frame.Frame) {
		i := t.begin(id)
		h(now, f)
		t.end(i)
	}
}

// sink wraps the workload's enqueue call.
func (t *tracer) sink(s workload.Sink, name string) workload.Sink {
	if t == nil {
		return s
	}
	id := t.id(name)
	return func(dg arq.Datagram) bool {
		i := t.begin(id)
		ok := s(dg)
		t.end(i)
		return ok
	}
}

// deliver wraps the upward delivery callback.
func (t *tracer) deliver(d arq.DeliverFunc, name string) arq.DeliverFunc {
	if t == nil {
		return d
	}
	id := t.id(name)
	return func(now sim.Time, dg arq.Datagram, seq uint32) {
		i := t.begin(id)
		d(now, dg, seq)
		t.end(i)
	}
}

// span runs fn under a span of the given name.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	i := t.begin(t.id(name))
	fn()
	t.end(i)
}

// root runs fn under a root span of the given name and folds the
// repetition.
func (t *tracer) root(name string, fn func()) {
	t.span(name, fn)
	if t != nil {
		t.fold()
	}
}
