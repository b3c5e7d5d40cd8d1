// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual cycle clock by executing scheduled events
// in (time, insertion-order) order. All components of the GPU model share
// one engine; the simulation is single-threaded, which makes runs exactly
// reproducible.
//
// Components bind each long-lived callback once (Bind returns a small
// integer Handler) and schedule it with an integer argument, so an
// event is a 16-byte, pointer-free record: argument, handler and list
// link. The records sit in one slab. A ring of 2^16 per-cycle FIFO
// lists, linked through the slab by index, holds every event due in
// the next 65,536 cycles; an occupancy bitmap finds the next non-empty
// cycle in a few word operations; and a binary heap of (time, seq,
// index) entries holds the rare event beyond the ring (see the
// scheduling invariant on Engine). Nothing the queue touches holds a
// pointer, so queueing and running an event costs the garbage
// collector nothing. Plain Event closures, used off the hot path, wait
// in a small side table, an internal/pool pool, and reach the queue
// through one reserved handler.
package sim

import (
	"math/bits"

	"repro/internal/pool"
)

// Time is a point in virtual time, measured in clock cycles.
// The system clock is 1GHz, so one cycle is one nanosecond and a
// bandwidth of 1GB/s equals 1 byte/cycle.
type Time uint64

// Event is a callback scheduled to run at a specific virtual time.
type Event func(now Time)

// ArgEvent is an event callback carrying a small integer argument.
// Components bind one long-lived ArgEvent per pipeline stage with
// Engine.Bind and schedule it with varying arguments (a warp slot, a
// pooled record index) instead of allocating a closure per event.
type ArgEvent func(now Time, arg int)

// Handler names an ArgEvent bound to one Engine with Bind. The zero
// Handler names nothing: components use it for an absent continuation,
// and the engine never binds it.
type Handler uint32

// sideHandler is the reserved handler that runs a side-table Event.
const sideHandler Handler = 1

// ringBits sizes the ring: 2^ringBits consecutive cycles have their own
// FIFO list. The width comes from the model's delay histogram, not from
// its fixed latencies (L1 28, L2 96, DRAM 100, link 128…): bandwidth
// servers book completions behind backlogs thousands of cycles deep,
// and the policy samplers tick every 5K cycles. With a 1,024-cycle ring
// 10.6–16.2% of all inserts in fig3, fig8 and fig11 went to the heap
// (up to 12.8K of them queued at once); at 2^16 cycles 0.17% of those
// still do on fig3 and fig8 and none on fig11.
const (
	ringBits = 16
	ringSize = 1 << ringBits
	ringMask = ringSize - 1

	occWords = ringSize / 64 // level-0 occupancy words, one bit per cycle
	sumWords = occWords / 64 // level-1 words, one bit per level-0 word
)

// record is one slab entry: a queued event's handler and argument and
// the index of the next record in its cycle's FIFO list (or, once
// executed, in the free list). Index 0 is the nil link, so slab[0] is
// never used. 16 bytes and no pointers: four records share a host
// cache line, and the garbage collector never scans the slab.
type record struct {
	arg  int
	h    Handler
	next int32
}

// farEntry is one far-heap entry: an event at or beyond the ring
// window, ordered by (at, seq). seq counts far inserts only; within
// the window a list's order is its insertion order already.
type farEntry struct {
	at  Time
	seq uint64
	i   int32 // slab index of the event's record
}

// cycleList is the FIFO of one ring cycle: the slab indices of its
// first and last queued events, both 0 when the cycle is empty.
type cycleList struct {
	head, tail int32
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
//
// Scheduling invariant: every queued event with time in [now, now+ringSize)
// is linked into the ring list of cycle (time & ringMask); every event at
// or beyond now+ringSize sits in the far heap, ordered by (time, seq).
// Whenever the clock advances, far events whose time has entered the
// window migrate to the tails of their lists — in (time, seq) order, and
// always before any event of the new cycle executes. An event reaches a
// cycle's list directly only while that cycle is inside the window, and
// a far event for the same cycle was scheduled while it was outside,
// hence earlier; so every list is in insertion order and the global
// (time, insertion-order) contract holds exactly.
//
// An Engine may keep running across multiple scheduling waves: after
// Run drains the queue, more events can be scheduled and Run called
// again, with the clock continuing from where it stopped. To reuse an
// Engine for an unrelated fresh simulation, call Reset — never rely on
// a drained queue alone, since a RunUntil stop or a stopped Ticker can
// leave events pending that would leak into the next run.
type Engine struct {
	// The pointer-bearing fields come first, so the garbage collector
	// never scans the integer-only ring below them.
	slab     []record         // every queued event; executed records join the free list
	far      []farEntry       // min-heap of the events beyond the ring
	handlers []ArgEvent       // bound callbacks: [0] is nil, [sideHandler] runs side
	side     pool.Pool[Event] // queued Event closures

	now   Time
	seq   uint64 // far inserts so far
	nRun  uint64
	ringN int   // events currently linked into the ring
	free  int32 // head of the free-record list

	// occ has bit c set exactly when ring cycle c has an event; sum has
	// bit w set exactly when occ[w] is non-zero.
	occ  [occWords]uint64
	sum  [sumWords]uint64
	ring [ringSize]cycleList
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have run so far; useful for
// performance accounting in benchmarks.
func (e *Engine) Executed() uint64 { return e.nRun }

// Pending reports how many events are waiting to run.
func (e *Engine) Pending() int { return e.ringN + len(e.far) }

// Bind registers fn for the lifetime of the engine and returns the
// handler that schedules it. Components bind each stage callback once
// at construction; bindings survive Reset.
func (e *Engine) Bind(fn ArgEvent) Handler {
	if fn == nil {
		panic("sim: Bind of a nil ArgEvent")
	}
	if e.handlers == nil {
		e.handlers = []ArgEvent{nil, e.runSide}
	}
	e.handlers = append(e.handlers, fn)
	return Handler(len(e.handlers) - 1)
}

// Call runs handler h with arg at the current time, inline, without
// queueing an event: for a component that completes a caller's
// continuation synchronously.
func (e *Engine) Call(h Handler, arg int) { e.handlers[h](e.now, arg) }

// insert queues handler h with arg at absolute time at (which must be
// >= e.now).
func (e *Engine) insert(at Time, h Handler, arg int) {
	i := e.free
	if i != 0 {
		e.free = e.slab[i].next
	} else {
		i = e.grow()
	}
	e.slab[i] = record{arg: arg, h: h}
	if at < e.now+ringSize {
		e.link(i, uint32(at)&ringMask)
	} else {
		e.seq++
		e.farPush(farEntry{at: at, seq: e.seq, i: i})
	}
}

// grow appends a fresh record to the slab and returns its index.
func (e *Engine) grow() int32 {
	if len(e.slab) == 0 {
		if cap(e.slab) == 0 {
			e.slab = make([]record, 0, 256)
		}
		e.slab = append(e.slab, record{}) // slab[0] is the nil link
	}
	e.slab = append(e.slab, record{})
	return int32(len(e.slab) - 1)
}

// link appends record i to the FIFO of ring cycle c.
func (e *Engine) link(i int32, c uint32) {
	l := &e.ring[c]
	if l.tail == 0 {
		l.head = i
		e.occ[c>>6] |= 1 << (c & 63)
		e.sum[c>>12] |= 1 << (c >> 6 & 63)
	} else {
		e.slab[l.tail].next = i
	}
	l.tail = i
	e.ringN++
}

// ScheduleArg runs handler h with arg after delay cycles. A delay of
// zero runs it later in the current cycle, after all previously
// scheduled events for this cycle.
func (e *Engine) ScheduleArg(delay Time, h Handler, arg int) {
	e.insert(e.now+delay, h, arg)
}

// AtArg runs handler h with arg at absolute time at. If at is in the
// past it runs at the current time (never before: virtual time is
// monotonic). Bandwidth servers use it to queue a pooled continuation
// at a transfer's completion time.
func (e *Engine) AtArg(at Time, h Handler, arg int) {
	if at < e.now {
		at = e.now
	}
	e.insert(at, h, arg)
}

// Schedule runs fn after delay cycles, through the side table: for
// recurring or one-off callbacks off the hot path (tickers, lane
// turns, tests) that are not worth a binding of their own.
func (e *Engine) Schedule(delay Time, fn Event) {
	e.queueSide(e.now+delay, fn)
}

// At runs fn at absolute time at, clamped to the present; see Schedule.
func (e *Engine) At(at Time, fn Event) {
	if at < e.now {
		at = e.now
	}
	e.queueSide(at, fn)
}

// queueSide parks fn in the side table and queues the side handler
// with its index at time at.
func (e *Engine) queueSide(at Time, fn Event) {
	if e.handlers == nil {
		e.handlers = []ArgEvent{nil, e.runSide}
	}
	e.insert(at, sideHandler, e.side.Put(fn))
}

// runSide is the side handler: it frees side-table entry i, then runs
// the Event it held.
func (e *Engine) runSide(now Time, i int) {
	fn := *e.side.At(i)
	e.side.Free(i)
	fn(now)
}

// setNow advances the clock to t and restores the scheduling invariant:
// far events whose time entered [t, t+ringSize) migrate to the tails of
// their ring lists. The heap pops in (time, seq) order and migration for
// a given cycle always happens before anything can link into that
// cycle's list directly, so FIFO-by-seq order within every list survives.
func (e *Engine) setNow(t Time) {
	e.now = t
	horizon := t + ringSize
	for len(e.far) > 0 && e.far[0].at < horizon {
		f := e.farPop()
		e.link(f.i, uint32(f.at)&ringMask)
	}
}

// advance moves the clock to the time of the next queued event,
// reporting whether one existed.
func (e *Engine) advance() bool {
	t, ok := e.peek()
	if !ok {
		return false
	}
	e.setNow(t)
	return true
}

// peek reports the time of the next queued event without running it.
func (e *Engine) peek() (Time, bool) {
	if e.ringN > 0 {
		// Far events are all ≥ now+ringSize, so a ring event is next.
		return e.now + e.nextBusy(), true
	}
	if len(e.far) > 0 {
		return e.far[0].at, true
	}
	return 0, false
}

// nextBusy reports how many cycles after now the first non-empty ring
// cycle lies; the ring must hold an event. Cycles of the current
// occupancy word at or after now are checked directly; otherwise the
// level-1 bitmap names the next non-empty word in ring order, wrapping
// round to the current word, whose bits below now are cycles nearly a
// full ring ahead.
func (e *Engine) nextBusy() Time {
	c := uint32(e.now) & ringMask
	w := c >> 6
	if m := e.occ[w] >> (c & 63); m != 0 {
		return Time(bits.TrailingZeros64(m))
	}
	next := (w + 1) & (occWords - 1)
	j := next >> 6
	if m := e.sum[j] >> (next & 63); m != 0 {
		next += uint32(bits.TrailingZeros64(m))
	} else {
		for k := uint32(1); ; k++ {
			if k > sumWords {
				panic("sim: ring occupancy index lost an event")
			}
			jk := (j + k) & (sumWords - 1)
			if m := e.sum[jk]; m != 0 {
				next = jk<<6 | uint32(bits.TrailingZeros64(m))
				break
			}
		}
	}
	busy := next<<6 | uint32(bits.TrailingZeros64(e.occ[next]))
	return Time((busy - c) & ringMask)
}

// Step executes the single next event and reports whether one existed.
func (e *Engine) Step() bool {
	c := uint32(e.now) & ringMask
	if e.ring[c].head == 0 {
		if !e.advance() {
			return false
		}
		c = uint32(e.now) & ringMask
	}
	l := &e.ring[c]
	i := l.head
	r := e.slab[i]
	if l.head = r.next; l.head == 0 {
		l.tail = 0
		w := c >> 6
		if e.occ[w] &^= 1 << (c & 63); e.occ[w] == 0 {
			e.sum[w>>6] &^= 1 << (w & 63)
		}
	}
	// Free the record before the call, which may queue into it.
	e.slab[i].next = e.free
	e.free = i
	e.ringN--
	e.nRun++
	e.handlers[r.h](e.now, r.arg)
	return true
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with time ≤ deadline. It returns true if the
// queue drained, false if the deadline stopped execution first (leaving
// the clock at deadline and later events still queued). A deadline in
// the past executes nothing and leaves the clock where it is — virtual
// time never moves backward.
func (e *Engine) RunUntil(deadline Time) bool {
	if deadline < e.now {
		return e.Pending() == 0
	}
	for {
		t, ok := e.peek()
		if !ok {
			return true
		}
		if t > deadline {
			e.setNow(deadline)
			return false
		}
		e.Step()
	}
}

// Reset returns the engine to its zero state: clock at zero, no pending
// events, counters cleared. Use it before reusing an Engine for a fresh
// simulation — any events still queued (after a RunUntil stop, a
// stopped Ticker, or an abandoned run) are discarded rather than leaking
// into the next run, and the side table releases the closures they
// held. Handlers bound with Bind stay bound, and the slab, far heap and
// side table keep their capacity, so a reused engine queues its next
// run without growing them again. A drained ring is already empty, so
// only an engine with events still queued pays for clearing it.
func (e *Engine) Reset() {
	if e.ringN > 0 {
		e.occ = [occWords]uint64{}
		e.sum = [sumWords]uint64{}
		e.ring = [ringSize]cycleList{}
	}
	e.side.Reset()
	e.slab, e.far = e.slab[:0], e.far[:0]
	e.now, e.seq, e.nRun, e.ringN, e.free = 0, 0, 0, 0, 0
}

// The far heap: a binary min-heap of (time, seq, slab index) entries.
// It holds integers only, so sifting moves no pointers.

func (a farEntry) less(b farEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) farPush(f farEntry) {
	e.far = append(e.far, f)
	h := e.far
	k := len(h) - 1
	for k > 0 {
		parent := (k - 1) / 2
		if !h[k].less(h[parent]) {
			break
		}
		h[k], h[parent] = h[parent], h[k]
		k = parent
	}
}

func (e *Engine) farPop() farEntry {
	h := e.far
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	e.far = h
	k := 0
	for {
		l, r := 2*k+1, 2*k+2
		smallest := k
		if l < n && h[l].less(h[smallest]) {
			smallest = l
		}
		if r < n && h[r].less(h[smallest]) {
			smallest = r
		}
		if smallest == k {
			break
		}
		h[k], h[smallest] = h[smallest], h[k]
		k = smallest
	}
	return top
}
