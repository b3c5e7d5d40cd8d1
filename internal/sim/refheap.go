package sim

import "container/heap"

// scheduled is one queued event of the ReferenceEngine: its (time, seq)
// stamp and exactly one of the three callback variants Engine accepts.
type scheduled struct {
	at  Time
	seq uint64
	fn  Event
	tfn func()
	afn ArgEvent
	arg int
}

func (s *scheduled) call(now Time) {
	switch {
	case s.fn != nil:
		s.fn(now)
	case s.afn != nil:
		s.afn(now, s.arg)
	default:
		s.tfn()
	}
}

// ReferenceEngine is the original binary-heap scheduler this package
// shipped with, kept compiled in as the executable specification of the
// (time, insertion-order) contract. It is deliberately boring: one
// container/heap ordered by (at, seq), no buckets, no pooling.
//
// The calendar-queue Engine must be observationally identical to it — same
// execution order, same clock, same Pending/Executed accounting — for
// every possible event program. TestSchedulerEquivalence and
// FuzzSchedulerEquivalence drive both implementations with the same
// inputs and fail on the first divergence; the engine benchmarks use it
// as the performance baseline. It is not used by the simulator itself.
type ReferenceEngine struct {
	now    Time
	seq    uint64
	events refHeap
	nRun   uint64
}

// NewReference returns a fresh reference engine with the clock at zero.
func NewReference() *ReferenceEngine { return &ReferenceEngine{} }

// Now reports the current virtual time.
func (e *ReferenceEngine) Now() Time { return e.now }

// Executed reports how many events have run so far.
func (e *ReferenceEngine) Executed() uint64 { return e.nRun }

// Pending reports how many events are waiting to run.
func (e *ReferenceEngine) Pending() int { return len(e.events) }

func (e *ReferenceEngine) insert(at Time, it scheduled) {
	e.seq++
	it.at = at
	it.seq = e.seq
	heap.Push(&e.events, it)
}

// Schedule runs fn after delay cycles, after all previously scheduled
// events for the target cycle.
func (e *ReferenceEngine) Schedule(delay Time, fn Event) {
	e.insert(e.now+delay, scheduled{fn: fn})
}

// ScheduleThunk is Schedule for a clock-ignoring callback.
func (e *ReferenceEngine) ScheduleThunk(delay Time, fn func()) {
	e.insert(e.now+delay, scheduled{tfn: fn})
}

// ScheduleArg runs fn(now, arg) after delay cycles.
func (e *ReferenceEngine) ScheduleArg(delay Time, fn ArgEvent, arg int) {
	e.insert(e.now+delay, scheduled{afn: fn, arg: arg})
}

// At runs fn at absolute time at, clamped to the present.
func (e *ReferenceEngine) At(at Time, fn Event) {
	if at < e.now {
		at = e.now
	}
	e.insert(at, scheduled{fn: fn})
}

// AtThunk is At for a clock-ignoring callback.
func (e *ReferenceEngine) AtThunk(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.insert(at, scheduled{tfn: fn})
}

// AtArg runs fn(now, arg) at absolute time at, clamped to the present.
func (e *ReferenceEngine) AtArg(at Time, fn ArgEvent, arg int) {
	if at < e.now {
		at = e.now
	}
	e.insert(at, scheduled{afn: fn, arg: arg})
}

// Step executes the single next event and reports whether one existed.
func (e *ReferenceEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	it := heap.Pop(&e.events).(scheduled)
	e.now = it.at
	e.nRun++
	it.call(e.now)
	return true
}

// Run executes events until the queue drains and returns the final time.
func (e *ReferenceEngine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with time ≤ deadline. It returns true if the
// queue drained, false if the deadline stopped execution first. A
// deadline in the past executes nothing and leaves the clock where it
// is — virtual time never moves backward.
func (e *ReferenceEngine) RunUntil(deadline Time) bool {
	if deadline < e.now {
		return len(e.events) == 0
	}
	for len(e.events) > 0 {
		if e.events[0].at > deadline {
			e.now = deadline
			return false
		}
		e.Step()
	}
	return true
}

// Reset returns the engine to its zero state, discarding queued events.
func (e *ReferenceEngine) Reset() {
	e.events = nil
	e.now, e.seq, e.nRun = 0, 0, 0
}

// refHeap orders scheduled events by (at, seq) under container/heap.
type refHeap []scheduled

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(scheduled)) }

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = scheduled{}
	*h = old[:n-1]
	return it
}
