package live

import (
	"errors"
	"io"
	"sync"

	"repro/internal/arq"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// txQueueBytes bounds the stuffed bytes a connWire holds for its writer:
// about a thousand 1 KiB frames, several round trips of any link the
// examples configure. A frame that does not fit is dropped, never waited for.
const txQueueBytes = 1 << 20

// connWire adapts an io.Writer into the arq.Wire the protocol entities
// transmit on. Send encodes the frame with the real codec and byte-stuffs
// it straight onto the tail of a pending buffer; a writer goroutine swaps
// that buffer for an empty one and issues one Write for everything queued
// since its last wake-up, so protocol callbacks never block on the network,
// frames that queue up while a Write is in progress leave together, and the
// two buffers are the only memory the path ever allocates. TxTime derives
// from the configured virtual rate so pacing matches the link the operator
// says they have.
type connWire struct {
	rateBps float64
	w       io.Writer
	onError func(error)
	// enc is the encode scratch buffer. Send is only ever called with the
	// driver mutex held, so a single buffer suffices.
	enc []byte

	mu      sync.Mutex
	ready   sync.Cond // pending became non-empty, or closing was set
	pending []byte    // stuffed frames awaiting the writer
	queued  uint64    // frames in pending
	closing bool      // Close was called: flush, then exit
	failed  bool      // a Write failed: discard everything from now on
	done    chan struct{}

	// dropped counts frames discarded because they did not fit in the
	// queue. Send must never block: it is called with the driver mutex
	// held, and blocking there can deadlock two endpoints against each
	// other through a synchronous transport. Dropping is safe — to the
	// protocol a full transmit queue is indistinguishable from wire loss,
	// which it recovers from by design.
	dropped *metrics.Counter
	writes  *metrics.Counter // Write calls issued
	frames  *metrics.Counter // frames those writes carried
}

// newConnWire starts the writer. With a non-nil registry the queue exports
// live_txq_dropped_total, live_tx_writes_total and live_tx_frames_total;
// frames per write is the batching the coalescing achieves.
func newConnWire(w io.Writer, rateBps float64, onError func(error), reg *metrics.Registry) *connWire {
	cw := &connWire{
		rateBps: rateBps,
		w:       w,
		onError: onError,
		done:    make(chan struct{}),
		dropped: reg.Counter("live_txq_dropped_total"),
		writes:  reg.Counter("live_tx_writes_total"),
		frames:  reg.Counter("live_tx_frames_total"),
	}
	if cw.dropped == nil {
		cw.dropped = new(metrics.Counter) // Dropped() counts with or without a registry
	}
	cw.ready.L = &cw.mu
	go cw.writeLoop()
	return cw
}

// writeLoop is the writer goroutine: one Write per wake-up, double-buffered
// against Send.
func (cw *connWire) writeLoop() {
	defer close(cw.done)
	var buf []byte // the buffer being written; Send fills the other one
	for {
		cw.mu.Lock()
		for len(cw.pending) == 0 && !cw.closing {
			cw.ready.Wait()
		}
		if len(cw.pending) == 0 {
			cw.mu.Unlock()
			return
		}
		buf, cw.pending = cw.pending, buf[:0]
		n := cw.queued
		cw.queued = 0
		cw.mu.Unlock()

		cw.writes.Inc()
		cw.frames.Add(n)
		if _, err := cw.w.Write(buf); err != nil {
			cw.mu.Lock()
			cw.failed = true
			cw.mu.Unlock()
			if cw.onError != nil {
				cw.onError(err)
			}
			return
		}
	}
}

// Send encodes and queues the frame. Encoding failures (only possible for
// corrupted or invalid frames, which entities never emit) are reported via
// onError.
func (cw *connWire) Send(f *frame.Frame) {
	raw, err := f.AppendEncode(cw.enc[:0])
	cw.enc = raw[:0]
	if err != nil {
		if cw.onError != nil {
			cw.onError(err)
		}
		return
	}
	cw.mu.Lock()
	if cw.failed || cw.closing {
		cw.mu.Unlock()
		return // the transport is gone; its error has been reported
	}
	before := len(cw.pending)
	cw.pending = AppendStuffed(cw.pending, raw)
	fits := len(cw.pending) <= txQueueBytes
	if fits {
		cw.queued++
	} else {
		cw.pending = cw.pending[:before]
	}
	cw.mu.Unlock()
	switch {
	case !fits:
		cw.dropped.Inc()
	case before == 0:
		// The writer may be asleep. Signalled after the unlock, so that it
		// does not wake only to block on the mutex.
		cw.ready.Signal()
	}
}

// Dropped returns the number of frames discarded at the transmit queue.
func (cw *connWire) Dropped() uint64 { return cw.dropped.Value() }

// TxTime reports the serialization time at the nominal link rate.
func (cw *connWire) TxTime(f *frame.Frame) sim.Duration {
	if cw.rateBps <= 0 {
		return 0
	}
	return sim.Duration(float64(f.Bits()) / cw.rateBps * float64(sim.Second))
}

// Close writes out what is pending and stops the writer. Idempotent.
func (cw *connWire) Close() {
	cw.mu.Lock()
	cw.closing = true
	cw.ready.Signal()
	cw.mu.Unlock()
	<-cw.done
}

// Endpoint binds the halves of one ARQ engine to one full-duplex connection:
// a data sender (outbound I-frames, inbound acknowledgements) and/or a data
// receiver (inbound I-frames, outbound acknowledgements). A unidirectional
// data session sets exactly one of the two; a bidirectional node sets both.
// The halves are whatever EndpointConfig.Config builds — the same sans-IO
// state machines the simulator runs, for any registered engine.
type Endpoint struct {
	Driver   *Driver
	Sender   arq.SenderHalf   // nil without SendSide
	Receiver arq.ReceiverHalf // nil without RecvSide
	Metrics  *arq.Metrics

	wire   *connWire
	conn   io.ReadWriteCloser
	readWG sync.WaitGroup

	// damaged stands for every undecodable frame: nothing about one is
	// known but that it arrived, and handlers only read it.
	damaged frame.Frame
}

// EndpointConfig parameterizes NewEndpoint.
type EndpointConfig struct {
	// Config is the engine configuration (shared by both ends): it selects
	// the protocol and builds its halves.
	Config arq.EngineConfig
	// RateBps is the nominal link rate used for send pacing.
	RateBps float64
	// Speed scales virtual time against the wall clock (1 = real time).
	Speed float64
	// SendSide / RecvSide select which protocol halves this endpoint runs.
	SendSide, RecvSide bool
	// Deliver receives datagrams on the receive side.
	Deliver arq.DeliverFunc
	// OnFailure is invoked if the send side declares link failure.
	OnFailure arq.FailureFunc
	// OnError receives transport errors (decode garbage is not an error;
	// it is a detectably corrupted frame, handled by the protocol).
	OnError func(error)
	// Metrics, when non-nil, instruments the endpoint's scheduler and
	// protocol halves into the registry — the one a ServeMetrics endpoint
	// scrapes.
	Metrics *metrics.Registry
}

// NewEndpoint wires an endpoint over conn and starts its driver and reader.
// Close releases everything.
func NewEndpoint(conn io.ReadWriteCloser, cfg EndpointConfig) *Endpoint {
	if cfg.Speed <= 0 {
		cfg.Speed = 1
	}
	sched := sim.NewScheduler()
	sched.Instrument(cfg.Metrics)
	engine := cfg.Config.WithMetrics(cfg.Metrics)
	drv := NewDriver(sched, cfg.Speed)
	wire := newConnWire(conn, cfg.RateBps, cfg.OnError, cfg.Metrics)
	ep := &Endpoint{
		Driver: drv, Metrics: &arq.Metrics{}, wire: wire, conn: conn,
		damaged: frame.Frame{Corrupted: true},
	}
	if cfg.SendSide {
		ep.Sender = engine.NewSender(sched, wire, ep.Metrics, cfg.OnFailure)
	}
	if cfg.RecvSide {
		ep.Receiver = engine.NewReceiver(sched, wire, ep.Metrics, cfg.Deliver)
	}

	drv.Post(func() {
		if ep.Receiver != nil {
			ep.Receiver.Start()
		}
		if ep.Sender != nil {
			ep.Sender.Start()
		}
	})
	go drv.Run()

	ep.readWG.Add(1)
	go ep.readLoop(cfg.OnError)
	return ep
}

// readLoop is the reader goroutine. It deframes and decodes every frame of
// one Read off the driver — the CRC work overlaps the protocol's — and
// hands the lot to the driver with a single Post: one lock, one wake-up and
// one closure per chunk of stream, however many frames it held.
func (ep *Endpoint) readLoop(onError func(error)) {
	defer ep.readWG.Done()
	var (
		d     Deframer
		batch []*frame.Frame // reused; each Post takes a copy
	)
	decode := func(raw []byte) error {
		f := frame.Get()
		if _, err := f.DecodeFrom(raw); err != nil {
			// A damaged frame: deliver it as detectably corrupted,
			// exactly like the simulator's channel marking. Both
			// halves ignore corrupted frames, but arrival ordering
			// side effects (none today) stay faithful.
			frame.Put(f)
			f = &ep.damaged
		}
		batch = append(batch, f)
		return nil
	}
	buf := make([]byte, 64<<10)
	for {
		n, err := ep.conn.Read(buf)
		if n > 0 {
			ferr := d.Feed(buf[:n], decode)
			if len(batch) > 0 {
				frames := append([]*frame.Frame(nil), batch...)
				batch = batch[:0]
				ep.Driver.Post(func() {
					for _, f := range frames {
						ep.dispatch(f)
					}
				})
			}
			if err == nil {
				err = ferr
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && onError != nil {
				onError(err)
			}
			return
		}
	}
}

// dispatch routes an inbound frame by direction, not by protocol: data
// traffic (an information frame, or the Request-NAK a sender addresses to
// its peer's receiver) goes to the receiving half, acknowledgement traffic
// (every other kind) to the sending half, so any engine's pairing of kinds
// routes without a table here. Ownership is the simulator's rule
// (channel.Handler): an information frame becomes its handler's, anything
// else goes back to the frame pool when the handler returns.
func (ep *Endpoint) dispatch(f *frame.Frame) {
	now := ep.Driver.sched.Now()
	if f.Corrupted {
		// Undecodable: receivers handle it (gap detection / discard);
		// senders ignore corrupted control frames either way. It is the
		// shared damaged frame, so it never goes to the pool.
		if ep.Receiver != nil {
			ep.Receiver.HandleFrame(now, f)
		}
		if ep.Sender != nil {
			ep.Sender.HandleFrame(now, f)
		}
		return
	}
	// Read the kind first: an information frame's handler may recycle it.
	info := !f.Kind.Control()
	if info || f.Kind == frame.KindRequestNAK {
		if ep.Receiver != nil {
			ep.Receiver.HandleFrame(now, f)
			if info {
				return // the receiving half owns it now
			}
		}
	} else if ep.Sender != nil {
		ep.Sender.HandleFrame(now, f)
	}
	frame.Put(f)
}

// Enqueue submits a datagram on the send side from any goroutine; it
// reports acceptance synchronously. The send half runs on the calling
// goroutine (Driver.Call), so must not be called from one of this
// endpoint's own callbacks.
func (ep *Endpoint) Enqueue(dg arq.Datagram) bool {
	ok := false
	if ep.Sender != nil {
		ep.Driver.Call(func() { ok = ep.Sender.Enqueue(dg) })
	}
	return ok
}

// Close stops the driver, reader, and writer, and closes the connection.
func (ep *Endpoint) Close() {
	ep.Driver.Stop()
	ep.conn.Close() // unblocks the reader
	ep.readWG.Wait()
	ep.wire.Close()
}
