package live

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/arq"
	_ "repro/internal/engines" // every registered engine must run live
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// metricFamily is the instrument-name prefix each engine publishes under.
var metricFamily = map[string]string{"lams": "lams_", "srhdlc": "hdlc_", "gbn": "hdlc_", "ssarq": "ssarq_"}

// TestLiveEveryEngine runs every registered engine, on its defaults, between
// two endpoints over a net.Pipe that flips bytes in both directions, with the
// §3.2 checker attached the way the simulated harness attaches it: through
// the halves' SetProbe and the wrapped Deliver/Enqueue. Only the transmission
// hooks are attached, so the timing rules stay dormant (wall-clock jitter is
// not a protocol breach) and no-loss, duplicates and completion must hold;
// the endpoints run at real time, not liveSpeed(), so that a loaded host's
// scheduling hiccups stay below the engines' failure timers. The endpoint
// knows no engine, so a newly registered one is covered by registering. The
// receiving end's registry must come back carrying the engine's own
// instrument family.
func TestLiveEveryEngine(t *testing.T) {
	for _, name := range arq.Protocols() {
		t.Run(name, func(t *testing.T) {
			reg, err := arq.ParseProtocol(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := reg.Defaults(2 * sim.Millisecond)
			a, b := net.Pipe()
			// A 128-byte datagram is ~155 bytes on the wire: ~1 frame in 7
			// damaged on the way out, an acknowledgement now and then back.
			noisyA := &corruptingConn{Conn: a, every: 1100, rng: 0x9E3779B97F4A7C15, next: 500}
			noisyB := &corruptingConn{Conn: b, every: 1100, rng: 0xD1B54A32D192ED03, next: 300}

			const n = 60
			// The checker has no lock: its sender-side hooks run under tx's
			// driver mutex, delivery under rx's, submission on this goroutine —
			// disjoint fields until Finish, which -race (make livesmoke) holds.
			ck := faults.NewChecker(arq.RecoveryWindows{})
			seen := map[uint64]bool{} // touched only under rx's driver mutex
			done := make(chan struct{})
			registry := metrics.New()
			tx := NewEndpoint(noisyA, EndpointConfig{Config: cfg, RateBps: 50e6, Speed: 1, SendSide: true})
			rx := NewEndpoint(noisyB, EndpointConfig{Config: cfg, RateBps: 50e6, Speed: 1, RecvSide: true,
				Metrics: registry,
				Deliver: ck.WrapDeliver(func(_ sim.Time, dg arq.Datagram, _ uint32) {
					if seen[dg.ID] = true; len(seen) == n {
						select {
						case <-done:
						default:
							close(done)
						}
					}
				})})
			// Only the transmission hooks: the checkpoint and recovery hooks
			// feed the timing rules, which have no bound to hold a wall clock to.
			probe := &arq.Probe{
				FirstTransmission: ck.Probe().FirstTransmission,
				Retransmitted:     ck.Probe().Retransmitted,
				Released:          ck.Probe().Released,
				FailureDeclared:   ck.Probe().FailureDeclared,
			}
			tx.Driver.Call(func() { tx.Sender.SetProbe(probe) })
			rx.Driver.Call(func() { rx.Receiver.SetProbe(probe) })

			enqueue := ck.WrapSink(tx.Enqueue)
			for i := 0; i < n; i++ {
				if !enqueue(arq.Datagram{ID: uint64(i), Payload: bytes.Repeat([]byte{0xA5}, 128)}) {
					t.Fatalf("enqueue %d refused", i)
				}
			}
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				rx.Driver.Call(func() { t.Errorf("timeout: delivered %d/%d", len(seen), n) })
			}
			var held []arq.Datagram
			tx.Driver.Call(func() { held = tx.Sender.UnreleasedDatagrams() })
			// Close orders every callback of both drivers before Finish.
			tx.Close()
			rx.Close()
			for _, v := range ck.Finish(held) {
				t.Errorf("violation: %s", v)
			}
			if noisyA.flips == 0 {
				t.Error("no byte was flipped: the wire was not noisy")
			}

			prefix, ok := metricFamily[name]
			if !ok {
				t.Logf("engine %q has no known instrument family; add it to metricFamily", name)
				return
			}
			var total uint64
			for counter, v := range registry.Snapshot().Counters {
				if strings.HasPrefix(counter, prefix) {
					total += v
				}
			}
			if total == 0 {
				t.Errorf("EndpointConfig.Metrics carries no %s* counts after the run", prefix)
			}
		})
	}
}
