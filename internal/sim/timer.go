package sim

// Timer is a restartable one-shot timer on a Scheduler's virtual clock. It
// matches the timers DLC protocols are specified with: the checkpoint timer
// is "reset to zero after each Check-Point command", the failure timer is
// started by a Request-NAK and stopped by the Enforced-NAK.
//
// A Timer is created stopped. Restarting an armed timer cancels the previous
// deadline. The callback is fixed at construction so arming is allocation-
// light and cannot accidentally change behaviour mid-protocol.
type Timer struct {
	sched *Scheduler
	fn    func()
	// ev is the armed expiry, nil when stopped. The timer clears it on expiry
	// and on Stop, so it can dangle only after Scheduler.Recycle reaped the
	// event from under it — which is why every use checks the scheduler's
	// recycled mark first: the timer then reads as stopped instead of
	// reaching into a slot that now serves another run.
	ev *event
	// expireFn is t.expire captured once at construction: evaluating a
	// method value allocates, so arming a timer per frame must not.
	expireFn func()
}

// NewTimer returns a stopped timer that will invoke fn on expiry.
func NewTimer(sched *Scheduler, fn func()) *Timer {
	if sched == nil {
		panic("sim: NewTimer with nil scheduler")
	}
	if fn == nil {
		panic("sim: NewTimer with nil callback")
	}
	t := &Timer{sched: sched, fn: fn}
	t.expireFn = t.expire
	return t
}

// Start arms the timer to fire d from now, replacing any earlier deadline.
//
// Timer events are scheduled on the managed (recyclable) path: the timer
// drops its event reference synchronously on expiry and on Stop, so the
// scheduler is free to recycle the object once it is reaped — an armed-and-
// cancelled failure timer costs no allocation in steady state.
func (t *Timer) Start(d Duration) {
	t.Stop()
	if d < 0 {
		d = 0
	}
	t.arm(t.sched.now.Add(d))
}

// StartAt arms the timer to fire at the given instant, replacing any earlier
// deadline.
func (t *Timer) StartAt(at Time) {
	t.Stop()
	t.arm(at)
}

func (t *Timer) arm(at Time) {
	t.ev = t.sched.schedule(at, t.expireFn, nil, nil, true)
}

// Stop disarms the timer. Stopping a stopped timer is a no-op. It reports
// whether a pending expiry was cancelled.
func (t *Timer) Stop() bool {
	armed := t.Active()
	if armed {
		t.sched.cancel(t.ev)
	}
	t.ev = nil
	return armed
}

// Active reports whether the timer is armed and has not yet fired.
func (t *Timer) Active() bool { return t.ev != nil && !t.sched.recycled }

// Deadline returns the instant the timer will fire, or Never if stopped.
func (t *Timer) Deadline() Time {
	if !t.Active() {
		return Never
	}
	return t.ev.at
}

func (t *Timer) expire() {
	t.ev = nil
	t.fn()
}

// Ticker repeatedly invokes a callback with a fixed period, like the
// receiver's checkpoint-command emission every W_cp. The callback runs at
// start+period, start+2*period, ... until Stop.
type Ticker struct {
	sched   *Scheduler
	period  Duration
	fn      func()
	ev      *event // the armed tick: see Timer.ev
	running bool
	// tickFn is t.tick captured once at construction so rearming every
	// period does not allocate a fresh closure.
	tickFn func()
}

// NewTicker returns a stopped ticker.
func NewTicker(sched *Scheduler, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: NewTicker with non-positive period")
	}
	if fn == nil {
		panic("sim: NewTicker with nil callback")
	}
	t := &Ticker{sched: sched, period: period, fn: fn}
	t.tickFn = t.tick
	return t
}

// Start begins ticking; the first tick fires one period from now.
func (t *Ticker) Start() {
	t.Stop()
	t.running = true
	t.arm()
}

// Stop halts the ticker. The ticker can be restarted.
func (t *Ticker) Stop() {
	t.running = false
	if t.ev != nil && !t.sched.recycled {
		t.sched.cancel(t.ev)
	}
	t.ev = nil
}

// SetPeriod changes the period for subsequent ticks. If the ticker is
// running, the current pending tick keeps its deadline and the new period
// applies afterwards.
func (t *Ticker) SetPeriod(p Duration) {
	if p <= 0 {
		panic("sim: SetPeriod with non-positive period")
	}
	t.period = p
}

func (t *Ticker) arm() {
	t.ev = t.sched.schedule(t.sched.now.Add(t.period), t.tickFn, nil, nil, true)
}

func (t *Ticker) tick() {
	t.ev = nil
	t.fn()
	// The callback may have stopped or restarted the ticker; only
	// rearm when it is still running and did not rearm itself.
	if t.running && t.ev == nil {
		t.arm()
	}
}
