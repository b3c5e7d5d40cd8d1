package sim

import "container/heap"

// scheduled is one queued event of the ReferenceEngine: its (time, seq)
// stamp and its callback, a plain Event or a bound handler's ArgEvent
// with its argument.
type scheduled struct {
	at  Time
	seq uint64
	fn  Event
	afn ArgEvent
	arg int
}

// ReferenceEngine is the original binary-heap scheduler this package
// shipped with, kept as the executable specification of the
// (time, insertion-order) contract. It is deliberately boring: one
// container/heap ordered by (at, seq), no buckets, no pooling.
//
// The calendar-queue Engine must be observationally identical to it — same
// execution order, same clock, same Pending/Executed accounting — for
// every possible event program. TestSchedulerEquivalence and
// FuzzSchedulerEquivalence drive both implementations with the same
// inputs and fail on the first divergence; the engine benchmarks use it
// as the performance baseline.
type ReferenceEngine struct {
	now      Time
	seq      uint64
	events   refHeap
	nRun     uint64
	handlers []ArgEvent // [0] is the nil handler, as on Engine
}

// NewReference returns a fresh reference engine with the clock at zero.
func NewReference() *ReferenceEngine { return &ReferenceEngine{} }

// Now reports the current virtual time.
func (e *ReferenceEngine) Now() Time { return e.now }

// Executed reports how many events have run so far.
func (e *ReferenceEngine) Executed() uint64 { return e.nRun }

// Pending reports how many events are waiting to run.
func (e *ReferenceEngine) Pending() int { return len(e.events) }

// Bind registers fn and returns the handler that schedules it.
func (e *ReferenceEngine) Bind(fn ArgEvent) Handler {
	if e.handlers == nil {
		e.handlers = []ArgEvent{nil}
	}
	e.handlers = append(e.handlers, fn)
	return Handler(len(e.handlers) - 1)
}

// Call runs handler h with arg now, inline.
func (e *ReferenceEngine) Call(h Handler, arg int) { e.handlers[h](e.now, arg) }

func (e *ReferenceEngine) insert(at Time, it scheduled) {
	if at < e.now {
		at = e.now
	}
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

// ScheduleArg runs handler h with arg after delay cycles.
func (e *ReferenceEngine) ScheduleArg(delay Time, h Handler, arg int) {
	e.insert(e.now+delay, scheduled{afn: e.handlers[h], arg: arg})
}

// At runs fn at absolute time at, clamped to the present.
func (e *ReferenceEngine) At(at Time, fn Event) {
	e.insert(at, scheduled{fn: fn})
}

// AtArg runs handler h with arg at absolute time at, clamped to the
// present.
func (e *ReferenceEngine) AtArg(at Time, h Handler, arg int) {
	e.insert(at, scheduled{afn: e.handlers[h], arg: arg})
}

// Step executes the single next event and reports whether one existed.
func (e *ReferenceEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	it := heap.Pop(&e.events).(scheduled)
	e.now = it.at
	e.nRun++
	if it.fn != nil {
		it.fn(e.now)
	} else {
		it.afn(e.now, it.arg)
	}
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

// Reset returns the engine to its zero state, discarding queued events;
// bound handlers stay bound.
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
