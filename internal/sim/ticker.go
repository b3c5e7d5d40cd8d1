package sim

// Ticker drives a recurring component clock: fn runs every period
// cycles until Stop. It replaces the hand-rolled self-rescheduling
// closures of the policy samplers (link balancer, cache partition
// controller, observability probes) with one allocation for the
// lifetime of the ticker instead of one per Start.
//
// Ordering is exactly that of the pattern it replaces: the first tick
// fires period cycles after Start, and each tick reschedules itself
// *after* fn returns, so events scheduled by fn at the same future
// cycle as the next tick keep their historical insertion order. A
// stopped ticker's already-queued tick still fires but does nothing —
// cancellation is a flag, never a queue surgery, which keeps the
// engine's accounting (Pending, Executed) simple and deterministic.
type Ticker struct {
	eng     *Engine
	period  Time
	fn      Event
	stopped bool
	tick    Event // the one long-lived self-rescheduling callback
}

// NewTicker prepares a ticker on eng with the given period in cycles
// (minimum 1). It does not start ticking until Start.
func NewTicker(eng *Engine, period Time, fn Event) *Ticker {
	if period < 1 {
		period = 1
	}
	t := &Ticker{eng: eng, period: period, fn: fn}
	t.tick = func(now Time) {
		if t.stopped {
			return
		}
		t.fn(now)
		t.eng.Schedule(t.period, t.tick)
	}
	return t
}

// Start (re)arms the ticker: the next tick fires period cycles from
// now. Calling Start on a running ticker adds another tick train; the
// policy components only ever start a ticker once per simulation.
func (t *Ticker) Start() {
	t.stopped = false
	t.eng.Schedule(t.period, t.tick)
}

// Stop halts ticking. The tick already in the queue fires as a no-op;
// no further ones are scheduled.
func (t *Ticker) Stop() { t.stopped = true }
