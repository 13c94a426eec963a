// Liveloop: the same LAMS-DLC state machines, but running in real time over
// a real byte stream (an in-memory net.Pipe with a fault injector that flips
// one byte in about every 250 written, roughly one frame in six). Frames are
// genuinely encoded with the wire codec, flag-framed HDLC-style, damaged in
// flight, rejected by FCS at the far end, and recovered through checkpoint
// NAKs — no simulator involved.
package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arq"
	"repro/internal/lamsdlc"
	"repro/internal/live"
	"repro/internal/sim"
)

// noisyConn flips one byte per roughly `every` bytes written. The budget is
// counted in bytes because the live transmit path coalesces frames: how many
// one Write carries depends on timing, the bytes on the wire do not. Gaps
// are seeded xorshift draws from [every/2, 3·every/2), so a run repeats and
// the damage cannot phase-lock with the retransmission cadence.
type noisyConn struct {
	net.Conn
	every int

	mu   sync.Mutex
	rng  uint64
	next int // bytes still to pass before the next flip
	hits atomic.Int64
}

func (c *noisyConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	out := p
	off := c.next
	for ; off < len(p); off += c.next {
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		c.next = c.every/2 + int(c.rng%uint64(c.every))
		flipped := p[off] ^ 0x55
		if framing(p[off]) || framing(flipped) {
			continue // keep flags and escapes intact: one flip, one damaged frame
		}
		if &out[0] == &p[0] {
			out = append([]byte(nil), p...) // the caller's buffer is not ours to damage
		}
		out[off] = flipped
		c.hits.Add(1)
	}
	c.next = off - len(p)
	c.mu.Unlock()
	return c.Conn.Write(out)
}

func framing(b byte) bool { return b == 0x7E || b == 0x7D }

func main() {
	a, b := net.Pipe()
	noisy := &noisyConn{Conn: a, every: 250, rng: 0x9E3779B97F4A7C15, next: 100}

	cfg := lamsdlc.Defaults(4 * time.Millisecond)
	cfg.CheckpointInterval = 20 * time.Millisecond
	cfg.ProcTime = 100 * time.Microsecond

	var mu sync.Mutex
	received := map[uint64]bool{}
	done := make(chan struct{})
	const n = 200

	tx := live.NewEndpoint(noisy, live.EndpointConfig{
		Config:   cfg,
		RateBps:  10e6,
		SendSide: true,
	})
	defer tx.Close()
	rx := live.NewEndpoint(b, live.EndpointConfig{
		Config:   cfg,
		RateBps:  10e6,
		RecvSide: true,
		Deliver: func(_ sim.Time, dg arq.Datagram, seq uint32) {
			mu.Lock()
			received[dg.ID] = true
			if len(received) == n {
				close(done)
			}
			mu.Unlock()
		},
	})
	defer rx.Close()

	start := time.Now()
	fmt.Printf("pushing %d datagrams through a pipe that flips one byte in every ~%d...\n", n, noisy.every)
	go func() {
		for i := 0; i < n; i++ {
			for !tx.Enqueue(arq.Datagram{ID: uint64(i), Payload: []byte(fmt.Sprintf("live datagram %03d", i))}) {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			mu.Lock()
			got := len(received)
			mu.Unlock()
			fmt.Printf("\nall %d delivered in %v wall time\n", got, time.Since(start).Round(time.Millisecond))
			fmt.Printf("bytes flipped by the wire: %d\n", noisy.hits.Load())
			// The protocol counters belong to each endpoint's driver: read
			// them through it.
			rx.Driver.Call(func() {
				fmt.Printf("receiver: %d delivered, %d NAK entries issued, %d checkpoints\n",
					rx.Metrics.Delivered.Value(), rx.Metrics.NAKsSent.Value(), rx.Metrics.Checkpoints.Value())
			})
			tx.Driver.Call(func() {
				fmt.Printf("sender: %d first transmissions + %d retransmissions, zero loss\n",
					tx.Metrics.FirstTx.Value(), tx.Metrics.Retransmissions.Value())
			})
			return
		case <-ticker.C:
			mu.Lock()
			got := len(received)
			mu.Unlock()
			var retx uint64
			tx.Driver.Call(func() { retx = tx.Metrics.Retransmissions.Value() })
			fmt.Printf("  %v: %d/%d delivered (retx so far: %d)\n",
				time.Since(start).Round(100*time.Millisecond), got, n, retx)
		case <-time.After(30 * time.Second):
			fmt.Println("timed out")
			return
		}
	}
}
