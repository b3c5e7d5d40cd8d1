// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual cycle clock by executing scheduled events
// in (time, insertion-order) order. All components of the GPU model share
// one engine; the simulation is single-threaded, which makes runs exactly
// reproducible.
//
// Internally the engine is a calendar queue over one slab of event
// records. A ring of 2^16 per-cycle FIFO lists, linked through the slab
// by index, holds every event due in the next 65,536 cycles; an
// occupancy bitmap finds the next non-empty cycle in a few word
// operations; and a binary heap of slab indices holds the rare event
// beyond the ring (see the scheduling invariant on Engine). Records
// never move once written, and the lists and the heap hold only
// integers, so queueing an event costs one record write and no copying
// of callbacks.
package sim

import "math/bits"

// Time is a point in virtual time, measured in clock cycles.
// The system clock is 1GHz, so one cycle is one nanosecond and a
// bandwidth of 1GB/s equals 1 byte/cycle.
type Time uint64

// Event is a callback scheduled to run at a specific virtual time.
type Event func(now Time)

// ArgEvent is an event callback carrying a small integer argument.
// Hot paths that wake per-slot state machines (e.g. warp slots in
// smcore) schedule one long-lived ArgEvent function value with varying
// arguments instead of allocating a fresh closure per event.
type ArgEvent func(now Time, arg int)

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

// record is one slab entry: a queued event and the index of the next
// record in its cycle's FIFO list (or, once executed, in the free list).
// Index 0 is the nil link, so slab[0] is never used. Exactly one of fn,
// tfn, afn is set; the three variants exist so call sites can schedule
// what they already hold (an Event, a plain completion func(), or a
// shared ArgEvent plus argument) without wrapping it in a fresh
// closure. A free record has all three nil, so queueing an event writes
// one callback reference and executing it clears that one again.
type record struct {
	at   Time
	seq  uint64
	fn   Event
	tfn  func()
	afn  ArgEvent
	arg  int
	next int32
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
// hence earlier; so list order is seq order and the global
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
	slab []record // every queued event; executed records join the free list
	far  []int32  // min-heap of slab indices beyond the ring, by (at, seq)

	// seqp, when non-nil, is a stamp counter shared with other engines:
	// every insert takes its seq from *seqp instead of the local counter.
	// The ParallelEngine's lockstep mode points all shards at one counter
	// so the shard-spanning (time, seq) order is exactly the insertion
	// order a single serial engine would have produced. e.seq still
	// increments per insert and doubles as a local change counter.
	seqp *uint64

	now   Time
	seq   uint64
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

// insert queues a record at absolute time at (which must be >= e.now)
// and returns it for the caller to set its callback. The pointer is
// valid until the next insert, which may grow the slab.
func (e *Engine) insert(at Time) *record {
	e.seq++
	seq := e.seq
	if e.seqp != nil {
		*e.seqp++
		seq = *e.seqp
	}
	i := e.free
	if i != 0 {
		e.free = e.slab[i].next
	} else {
		i = e.grow()
	}
	r := &e.slab[i]
	r.at, r.seq, r.next = at, seq, 0
	if at < e.now+ringSize {
		e.link(i, uint32(at)&ringMask)
	} else {
		e.farPush(i)
	}
	return r
}

// grow appends a fresh record to the slab and returns its index.
func (e *Engine) grow() int32 {
	if len(e.slab) == 0 {
		e.slab = make([]record, 1, 256) // slab[0] is the nil link
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

// Schedule runs fn after delay cycles. A delay of zero runs fn later in
// the current cycle, after all previously scheduled events for this cycle.
func (e *Engine) Schedule(delay Time, fn Event) {
	e.insert(e.now + delay).fn = fn
}

// ScheduleThunk is Schedule for a callback that ignores the clock:
// completion notifications that already close over their state can be
// queued directly instead of being wrapped in a func(Time) adapter.
func (e *Engine) ScheduleThunk(delay Time, fn func()) {
	e.insert(e.now + delay).tfn = fn
}

// ScheduleArg runs fn(now, arg) after delay cycles. fn is typically a
// single function value stored for the lifetime of a component, with
// arg selecting the slot/lane/index to act on — the allocation-free
// alternative to a per-event closure.
func (e *Engine) ScheduleArg(delay Time, fn ArgEvent, arg int) {
	r := e.insert(e.now + delay)
	r.afn, r.arg = fn, arg
}

// At runs fn at absolute time at. If at is in the past it runs at the
// current time (never before: virtual time is monotonic).
func (e *Engine) At(at Time, fn Event) {
	if at < e.now {
		at = e.now
	}
	e.insert(at).fn = fn
}

// AtThunk is At for a clock-ignoring callback; see ScheduleThunk.
func (e *Engine) AtThunk(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.insert(at).tfn = fn
}

// AtArg runs fn(now, arg) at absolute time at (clamped to the present);
// the At counterpart of ScheduleArg. Bandwidth servers use it to queue
// pooled continuations at a transfer's completion time without wrapping
// them in a closure.
func (e *Engine) AtArg(at Time, fn ArgEvent, arg int) {
	if at < e.now {
		at = e.now
	}
	r := e.insert(at)
	r.afn, r.arg = fn, arg
}

// setNow advances the clock to t and restores the scheduling invariant:
// far events whose time entered [t, t+ringSize) migrate to the tails of
// their ring lists. The heap pops in (time, seq) order and migration for
// a given cycle always happens before anything can link into that
// cycle's list directly, so FIFO-by-seq order within every list survives.
func (e *Engine) setNow(t Time) {
	e.now = t
	horizon := t + ringSize
	for len(e.far) > 0 && e.slab[e.far[0]].at < horizon {
		i := e.farPop()
		e.link(i, uint32(e.slab[i].at)&ringMask)
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
		return e.slab[e.far[0]].at, true
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

// peekHead reports the (time, seq) stamp of the next queued event
// without running it. The ParallelEngine's lockstep executor compares
// shard heads by this stamp to pick the globally next event; within a
// ring list FIFO order is seq order (see the Engine invariant), so the
// head of the first non-empty cycle carries the shard's minimum.
func (e *Engine) peekHead() (Time, uint64, bool) {
	if e.ringN > 0 {
		t := e.now + e.nextBusy()
		return t, e.slab[e.ring[uint32(t)&ringMask].head].seq, true
	}
	if len(e.far) > 0 {
		r := &e.slab[e.far[0]]
		return r.at, r.seq, true
	}
	return 0, 0, false
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
	r := &e.slab[i]
	if l.head = r.next; l.head == 0 {
		l.tail = 0
		w := c >> 6
		if e.occ[w] &^= 1 << (c & 63); e.occ[w] == 0 {
			e.sum[w>>6] &^= 1 << (w & 63)
		}
	}
	r.next = e.free
	e.free = i
	e.ringN--
	e.nRun++
	// Clear the callback before calling it (the record is already free,
	// and the call may reuse it or grow the slab).
	switch {
	case r.afn != nil:
		fn, arg := r.afn, r.arg
		r.afn = nil
		fn(e.now, arg)
	case r.fn != nil:
		fn := r.fn
		r.fn = nil
		fn(e.now)
	default:
		fn := r.tfn
		r.tfn = nil
		fn()
	}
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
// into the next run. The slab is released along with the event
// callbacks it references.
func (e *Engine) Reset() {
	e.slab, e.far = nil, nil
	e.now, e.seq, e.nRun, e.ringN, e.free = 0, 0, 0, 0, 0
	e.occ = [occWords]uint64{}
	e.sum = [sumWords]uint64{}
	e.ring = [ringSize]cycleList{}
}

// The far heap: a binary min-heap of slab indices ordered by the
// records' (time, seq). It holds integers only, so sifting moves no
// callback references.

func (e *Engine) farLess(a, b int32) bool {
	x, y := &e.slab[a], &e.slab[b]
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

func (e *Engine) farPush(i int32) {
	e.far = append(e.far, i)
	h := e.far
	k := len(h) - 1
	for k > 0 {
		parent := (k - 1) / 2
		if !e.farLess(h[k], h[parent]) {
			break
		}
		h[k], h[parent] = h[parent], h[k]
		k = parent
	}
}

func (e *Engine) farPop() int32 {
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
		if l < n && e.farLess(h[l], h[smallest]) {
			smallest = l
		}
		if r < n && e.farLess(h[r], h[smallest]) {
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
