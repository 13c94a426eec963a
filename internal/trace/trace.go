// Package trace records protocol events for debugging and for the CLI's
// --trace output: a fixed-capacity ring of structured events with
// deterministic ordering (virtual time, then insertion), cheap enough to
// leave compiled into the hot path.
//
// The channel layer exposes a Tap hook per pipe; Recorder and the streaming
// JSONL exporter both implement it (ChannelTap).
package trace

import (
	"fmt"
	"strings"

	"repro/internal/frame"
	"repro/internal/sim"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	KindTx      Kind = iota // frame entered the wire
	KindRx                  // frame delivered to the far end
	KindDrop                // frame lost (link down / no handler)
	KindCorrupt             // frame marked corrupted by the channel
)

var kindNames = [...]string{"TX", "RX", "DROP", "CORRUPT"}

// String returns the event-kind mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// FrameInfo is a structured summary of a frame, with every field copied out
// of the *frame.Frame at tap time. The copy is what makes retaining an Event
// safe under the channel layer's ownership contract: the pipe recycles
// control and corrupted frames the moment the handler returns, so a tap must
// never keep the pointer (see channel.Handler and the poisoning regression
// test in this package).
type FrameInfo struct {
	Kind       string `json:"kind"`
	Seq        uint32 `json:"seq"`
	Ack        uint32 `json:"ack,omitempty"`
	Serial     uint32 `json:"serial,omitempty"`
	NAKs       int    `json:"naks,omitempty"`
	Bits       int    `json:"bits"`
	DatagramID uint64 `json:"datagram_id,omitempty"`
	StopGo     bool   `json:"stop_go,omitempty"`
	Enforced   bool   `json:"enforced,omitempty"`
	Final      bool   `json:"final,omitempty"`
	Corrupted  bool   `json:"corrupted,omitempty"`
}

// infoOf copies the loggable fields of f. The returned struct shares no
// memory with the frame.
func infoOf(f *frame.Frame) *FrameInfo {
	return &FrameInfo{
		Kind:       f.Kind.String(),
		Seq:        f.Seq,
		Ack:        f.Ack,
		Serial:     f.Serial,
		NAKs:       len(f.NAKs),
		Bits:       f.Bits(),
		DatagramID: f.DatagramID,
		StopGo:     f.StopGo,
		Enforced:   f.Enforced,
		Final:      f.Final,
		Corrupted:  f.Corrupted,
	}
}

// kindFromChannelEvent maps the channel layer's tap event strings onto
// trace kinds.
func kindFromChannelEvent(event string) Kind {
	switch event {
	case "tx":
		return KindTx
	case "rx":
		return KindRx
	case "drop":
		return KindDrop
	case "corrupt":
		return KindCorrupt
	}
	return Kind(len(kindNames)) // not a channel event: renders as Kind(4)
}

// channelTap is the one adapter from the channel layer's tap signature to an
// event sink, for one pipe direction. text adds the rendered frame line a
// Dump prints; the JSONL schema carries only the structured summary and
// skips that formatting.
func channelTap(where string, text bool, add func(Event)) func(now sim.Time, event string, f *frame.Frame) {
	return func(now sim.Time, event string, f *frame.Frame) {
		e := Event{At: now, Kind: kindFromChannelEvent(event), Where: where}
		if f != nil {
			e.Info = infoOf(f)
			if text {
				e.Frame = f.String()
			}
		}
		add(e)
	}
}

// Event is one recorded occurrence.
type Event struct {
	At   sim.Time
	Kind Kind
	// Where identifies the pipe direction ("A->B").
	Where string
	// Frame summarizes the frame involved, if any.
	Frame string
	// Info holds the structured frame summary.
	Info *FrameInfo
}

// String renders one line.
func (e Event) String() string {
	parts := []string{fmt.Sprintf("%-12v %-7s %-6s", e.At, e.Kind, e.Where)}
	if e.Frame != "" {
		parts = append(parts, e.Frame)
	}
	return strings.Join(parts, " ")
}

// Recorder is a fixed-capacity ring buffer of events. The ring grows as
// events arrive, up to its capacity, so a capacity far beyond what a run
// emits costs nothing. The zero value is disabled (capacity 0, every Add
// dropped); construct with NewRecorder.
type Recorder struct {
	ring     []Event
	capacity int
	next     int
	count    uint64
}

// NewRecorder returns a recorder keeping the most recent capacity events.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{capacity: max(capacity, 0)}
}

// Add records an event.
func (r *Recorder) Add(e Event) {
	if r.capacity == 0 {
		return
	}
	r.count++
	if len(r.ring) < r.capacity {
		r.ring = append(r.ring, e)
		return
	}
	r.ring[r.next] = e
	r.next = (r.next + 1) % r.capacity
}

// Total returns the number of events offered and kept (before overwrite).
func (r *Recorder) Total() uint64 { return r.count }

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if len(r.ring) < r.capacity {
		return append([]Event(nil), r.ring...)
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Dump renders the retained events, one per line.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ChannelTap adapts the recorder to the channel layer's tap signature for
// one pipe direction.
func (r *Recorder) ChannelTap(where string) func(now sim.Time, event string, f *frame.Frame) {
	if r == nil {
		return nil
	}
	return channelTap(where, true, r.Add)
}
