package arq

import (
	"testing"

	"repro/internal/sim"
)

func TestMetricsNoteDelivery(t *testing.T) {
	var m Metrics
	m.NoteDelivery(sim.Time(sim.Second), Datagram{ID: 1, Payload: make([]byte, 125)})
	m.NoteDelivery(sim.Time(4*sim.Second), Datagram{ID: 2, EnqueuedAt: sim.Time(sim.Second)})
	if m.Delivered.Value() != 2 {
		t.Fatalf("delivered = %d, want 2", m.Delivered.Value())
	}
	if got, want := m.DeliveryDelay.Mean(), float64(2*sim.Second); got != want {
		t.Fatalf("delay mean = %v, want %v", got, want)
	}
}

func TestMetricsSummaryAndHolding(t *testing.T) {
	var m Metrics
	m.HoldingTime.Add(float64(10 * sim.Millisecond))
	m.HoldingTime.Add(float64(20 * sim.Millisecond))
	if got := m.MeanHoldingTime(); got != 15*sim.Millisecond {
		t.Fatalf("mean holding = %v", got)
	}
}

func TestTimingValidate(t *testing.T) {
	if err := (Timing{RoundTrip: sim.Second, ProcTime: sim.Microsecond}).Validate(); err != nil {
		t.Fatalf("valid timing rejected: %v", err)
	}
	if err := (Timing{RoundTrip: -1}).Validate(); err == nil {
		t.Fatal("negative round trip accepted")
	}
	if err := (Timing{ProcTime: -1}).Validate(); err == nil {
		t.Fatal("negative proc time accepted")
	}
}
