package live

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/sim"
)

// Driver executes a sim.Scheduler against the wall clock: virtual time
// advances 1:1 (or scaled) with real time, and everything that touches the
// scheduler or the protocol entities built on it runs under the driver
// mutex, one callback at a time. Protocol entities therefore run exactly as
// in simulation — single-threaded, virtual-clock timers — while I/O happens
// in real time.
//
// Which goroutine holds the mutex varies: due timers normally fire on the
// Run goroutine, but Call advances the scheduler on its caller's goroutine
// before running its function, so a protocol callback (Deliver, OnFailure,
// a wire Send) may run on any goroutine that uses Call. Callbacks must not
// assume a goroutine identity, and must not call back into the same driver
// (Call, Post, Stop, or an Endpoint method built on them): the mutex is
// held and not re-entrant.
type Driver struct {
	mu      sync.Mutex
	sched   *sim.Scheduler
	start   time.Time
	speed   float64 // virtual nanoseconds per wall nanosecond
	stopped bool    // guarded by mu; nothing runs once it is set

	wake chan struct{} // capacity 1: "the earliest event may have changed"
	quit chan struct{} // closed by Stop
	done chan struct{} // closed when Run returns
	once sync.Once
}

// spinBelow is the shortest wait Run sleeps for; it yields the processor
// and looks again for anything nearer. The events that near are the
// per-frame ones — serialization time and t_proc, 1–30 µs at the paper's
// 0.3–1 Gb/s — and the runtime cannot time them: a sleeping thread wakes on
// a 1 ms grid, and a re-armed timer stays with the processor that first
// armed it, which fires it only when that processor next looks (measured:
// median delivery 45 µs instead of 6 µs at 10,000 datagrams/s).
const spinBelow = 50 * time.Microsecond

// NewDriver wraps the scheduler. speed scales time: 1 is real time, 10
// runs the protocol ten times faster than the wall clock (useful to
// exercise long checkpoint intervals in quick tests). The scheduler must
// only be touched through the driver once Run starts.
func NewDriver(sched *sim.Scheduler, speed float64) *Driver {
	if sched == nil {
		panic("live: nil scheduler")
	}
	if speed <= 0 {
		panic("live: non-positive speed")
	}
	return &Driver{
		sched: sched,
		speed: speed,
		start: time.Now(),
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// now maps the wall clock to virtual time, never behind the scheduler's own
// clock. Caller holds mu.
func (d *Driver) now() sim.Time {
	return sim.MaxTime(d.sched.Now(), sim.Time(float64(time.Since(d.start))*d.speed))
}

// nudge makes Run recompute its sleep. It never blocks: a pending nudge
// already covers this one.
func (d *Driver) nudge() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// Run processes events until Stop. It blocks; run it on its own goroutine.
func (d *Driver) Run() {
	defer close(d.done)
	// One timer for the whole run, re-armed for every wait long enough to
	// sleep through; between waits it is stopped and drained.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		d.mu.Lock()
		if d.stopped {
			d.mu.Unlock()
			return
		}
		now := d.now()
		d.sched.RunUntil(now)
		next := d.sched.NextEventAt()
		d.mu.Unlock()

		if next == sim.Never {
			select {
			case <-d.wake:
				continue
			case <-d.quit:
				return
			}
		}
		wait := time.Duration(float64(next-now) / d.speed)
		if wait < spinBelow {
			runtime.Gosched()
			continue
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
			continue
		case <-d.wake:
		case <-d.quit:
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// Post schedules fn to run under the driver mutex at the current virtual
// instant, after everything posted before it. Safe from any goroutine; the
// entry point for connection readers delivering frames. After Stop, fn is
// dropped.
func (d *Driver) Post(fn func()) {
	d.mu.Lock()
	d.sched.Schedule(d.now(), fn)
	d.mu.Unlock()
	d.nudge()
}

// Call runs fn under the driver mutex on the calling goroutine and returns
// when it has completed: first everything that is already due — so fn sees
// the effect of every earlier Post, in order — then fn itself at the current
// virtual instant. There is no hand-off to the Run goroutine, only a nudge
// afterwards so that Run re-arms for whatever fn scheduled. After Stop, Call
// returns without running fn.
func (d *Driver) Call(fn func()) {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.sched.RunUntil(d.now())
	fn()
	d.mu.Unlock()
	d.nudge()
}

// Stop terminates Run and waits for it to return; once Stop has returned
// no callback is running and none will run. Idempotent.
func (d *Driver) Stop() {
	d.once.Do(func() {
		d.mu.Lock()
		d.stopped = true
		d.mu.Unlock()
		close(d.quit)
	})
	<-d.done
}
