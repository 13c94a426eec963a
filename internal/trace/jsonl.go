package trace

import (
	"encoding/json"
	"io"

	"repro/internal/frame"
	"repro/internal/sim"
)

// jsonEvent is the wire schema of one JSONL trace line. Virtual time is
// exported in nanoseconds since the run epoch; the human-readable Frame
// string of the in-memory Event is dropped in favour of the structured
// summary.
type jsonEvent struct {
	AtNS  int64      `json:"at_ns"`
	Kind  string     `json:"kind"`
	Where string     `json:"where"`
	Frame *FrameInfo `json:"frame,omitempty"`
}

func toJSONEvent(e Event) jsonEvent {
	return jsonEvent{
		AtNS:  int64(e.At),
		Kind:  e.Kind.String(),
		Where: e.Where,
		Frame: e.Info,
	}
}

// JSONL streams trace events to a writer, one JSON object per line, as they
// happen — unlike Recorder it retains nothing, so a full run's trace can be
// exported without bounding its length. Frame fields are copied at Add time
// (FrameInfo), preserving the channel layer's ownership contract.
//
// Write errors are sticky: the first one is kept (Err) and all later events
// are dropped, so a simulation never fails mid-run because its trace file
// did.
type JSONL struct {
	enc *json.Encoder
	n   uint64
	err error
	// Filter, when non-nil, drops events for which it returns false.
	Filter func(Event) bool
}

// NewJSONL returns an exporter writing to w. The caller owns w's lifetime
// (flush/close); JSONL only writes.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Add exports one event (subject to Filter).
func (j *JSONL) Add(e Event) {
	if j == nil || j.err != nil {
		return
	}
	if j.Filter != nil && !j.Filter(e) {
		return
	}
	if err := j.enc.Encode(toJSONEvent(e)); err != nil {
		j.err = err
		return
	}
	j.n++
}

// Count returns the number of events successfully written.
func (j *JSONL) Count() uint64 {
	if j == nil {
		return 0
	}
	return j.n
}

// Err returns the first write error, if any.
func (j *JSONL) Err() error {
	if j == nil {
		return nil
	}
	return j.err
}

// ChannelTap adapts the exporter to the channel layer's tap signature for
// one pipe direction.
func (j *JSONL) ChannelTap(where string) func(now sim.Time, event string, f *frame.Frame) {
	if j == nil {
		return nil
	}
	return channelTap(where, false, j.Add)
}
