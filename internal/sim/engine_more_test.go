package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// TestPendingExecutedAccounting pins the bookkeeping across both levels
// of the calendar queue: ring events, far-heap events, and migration
// between them must keep Pending + Executed consistent.
func TestPendingExecutedAccounting(t *testing.T) {
	e := New()
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func(Time) {}) // ring
	}
	for i := 0; i < 5; i++ {
		e.Schedule(ringSize+Time(i*100), func(Time) {}) // far heap
	}
	if got := e.Pending(); got != 15 {
		t.Fatalf("Pending %d, want 15", got)
	}
	if got := e.Executed(); got != 0 {
		t.Fatalf("Executed %d before running, want 0", got)
	}
	for i := 1; i <= 3; i++ {
		e.Step()
	}
	if got := e.Pending(); got != 12 {
		t.Fatalf("Pending %d after 3 steps, want 12", got)
	}
	if got := e.Executed(); got != 3 {
		t.Fatalf("Executed %d after 3 steps, want 3", got)
	}
	e.Run()
	if got, want := e.Pending(), 0; got != want {
		t.Fatalf("Pending %d after drain, want %d", got, want)
	}
	if got := e.Executed(); got != 15 {
		t.Fatalf("Executed %d after drain, want 15", got)
	}
}

// TestRingBoundaryDelays exercises delays straddling the ring window:
// exactly ringSize-1 (last ring cycle), ringSize and beyond (far
// heap), and events that migrate across as the clock advances.
func TestRingBoundaryDelays(t *testing.T) {
	e := New()
	var order []int
	for i, d := range []Time{ringSize - 1, ringSize, ringSize + 1, 1, 2 * ringSize} {
		i := i
		e.Schedule(d, func(Time) { order = append(order, i) })
	}
	e.Run()
	want := []int{3, 0, 1, 2, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if e.Now() != 2*ringSize {
		t.Fatalf("final clock %d, want %d", e.Now(), 2*ringSize)
	}
}

// TestSameCycleFIFOAcrossVariants pins FIFO order within one cycle when
// the scheduling variants interleave: side-table closures and a bound
// handler, by delay and by absolute time.
func TestSameCycleFIFOAcrossVariants(t *testing.T) {
	e := New()
	var order []int
	rec := func(i int) func(Time) { return func(Time) { order = append(order, i) } }
	h := e.Bind(func(_ Time, arg int) { order = append(order, arg) })
	e.Schedule(7, rec(0))
	e.ScheduleArg(7, h, 1)
	e.At(7, rec(2))
	e.AtArg(7, h, 3)
	e.Schedule(7, rec(4))
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("variant interleave broke same-cycle FIFO: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d events, want 5", len(order))
	}
}

// TestEngineReuseAcrossRuns documents that an Engine keeps working
// across scheduling waves: Run, schedule more, Run again, with the
// clock carrying forward (this is how core.System's kernel boundaries
// already use it).
func TestEngineReuseAcrossRuns(t *testing.T) {
	e := New()
	e.Schedule(10, func(Time) {})
	e.Run()
	if e.Now() != 10 {
		t.Fatalf("clock %d after first run, want 10", e.Now())
	}
	var at Time
	e.Schedule(5, func(now Time) { at = now })
	e.Run()
	if at != 15 {
		t.Fatalf("second wave ran at %d, want 15 (clock continues)", at)
	}
	if e.Executed() != 2 {
		t.Fatalf("Executed %d, want 2", e.Executed())
	}
}

// TestResetDiscardsPendingEvents pins the Reset contract: events left
// queued — in the ring and the far heap, e.g. by a RunUntil stop or a
// stopped Ticker — are discarded, not leaked into the next run. This
// is what makes Engine reuse safe with pooled slab storage.
func TestResetDiscardsPendingEvents(t *testing.T) {
	e := New()
	leaked := false
	for i := 0; i < 20; i++ {
		e.Schedule(Time(50+i), func(Time) { leaked = true })
	}
	e.Schedule(ringSize*3, func(Time) { leaked = true })
	if !e.RunUntil(10) {
		// expected: deadline stops execution with events still queued
	} else {
		t.Fatal("queue should not drain by t=10")
	}
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Executed() != 0 {
		t.Fatalf("Reset left state: now=%d pending=%d executed=%d", e.Now(), e.Pending(), e.Executed())
	}
	// A fresh simulation on the reused engine: only its own events run.
	var ran []Time
	e.Schedule(3, func(now Time) { ran = append(ran, now) })
	e.Run()
	if leaked {
		t.Fatal("Reset leaked a pre-reset event into the new run")
	}
	if len(ran) != 1 || ran[0] != 3 {
		t.Fatalf("post-reset run saw %v, want [3]", ran)
	}
	if e.Executed() != 1 {
		t.Fatalf("Executed %d after reset+run, want 1", e.Executed())
	}
}

// TestResetReference pins the same contract on the reference engine so
// the two stay interchangeable in the differential tests.
func TestResetReference(t *testing.T) {
	e := NewReference()
	e.Schedule(100, func(Time) { t.Fatal("leaked") })
	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 {
		t.Fatalf("reference Reset left state: pending=%d now=%d", e.Pending(), e.Now())
	}
	e.Run()
}

// TestRunUntilParksClockAndMigrates pins that a deadline stop parks the
// clock at the deadline (original engine behaviour) and that scheduling
// relative to the parked clock works across the ring window.
func TestRunUntilParksClockAndMigrates(t *testing.T) {
	e := New()
	count := 0
	e.Schedule(ringSize+500, func(Time) { count++ })
	if e.RunUntil(ringSize) {
		t.Fatal("queue should not drain by the window edge")
	}
	if e.Now() != ringSize {
		t.Fatalf("clock %d after deadline stop, want %d", e.Now(), ringSize)
	}
	// The far event is now within the ring window of the parked clock;
	// a new same-cycle insert after it must still run after it.
	ran := []int{}
	e.At(ringSize+500, func(Time) { ran = append(ran, 2) })
	e.Schedule(0, func(Time) { ran = append(ran, 1) })
	e.Run()
	if count != 1 {
		t.Fatalf("far event ran %d times, want 1", count)
	}
	if len(ran) != 2 || ran[0] != 1 || ran[1] != 2 {
		t.Fatalf("post-park ordering %v, want [1 2]", ran)
	}
}

// TestRunUntilPastDeadline pins that a deadline behind the clock is a
// pure no-op: nothing executes, the clock stays put, and queued events
// later run at their scheduled times. (Without the clamp the calendar-queue
// engine would rewind the clock, shift the ring window, and execute
// the queued event at an aliased earlier cycle.)
func TestRunUntilPastDeadline(t *testing.T) {
	for _, eng := range []schedulerAPI{New(), NewReference()} {
		e := eng
		e.Schedule(500, func(Time) {})
		e.Run() // park the clock at 500
		var ran Time
		e.At(1200, func(now Time) { ran = now })
		if e.RunUntil(100) {
			t.Fatal("past deadline with a queued event must report not drained")
		}
		if e.Now() != 500 {
			t.Fatalf("past deadline moved the clock: %d, want 500", e.Now())
		}
		if e.Pending() != 1 {
			t.Fatalf("past deadline disturbed the queue: %d pending, want 1", e.Pending())
		}
		e.Run()
		if ran != 1200 {
			t.Fatalf("event ran at %d, want 1200", ran)
		}
		if !e.RunUntil(3) { // drained engine: past deadline reports drained
			t.Fatal("past deadline on a drained engine must report drained")
		}
	}
}

// TestTicker pins the recurring-clock helper: period, callback clock,
// and the stop-is-a-flag cancellation semantics.
func TestTicker(t *testing.T) {
	e := New()
	var fires []Time
	tk := NewTicker(e, 10, func(now Time) { fires = append(fires, now) })
	tk.Start()
	e.RunUntil(35)
	if len(fires) != 3 || fires[0] != 10 || fires[1] != 20 || fires[2] != 30 {
		t.Fatalf("ticker fired at %v, want [10 20 30]", fires)
	}
	tk.Stop()
	e.Run() // the queued tick fires as a no-op and does not reschedule
	if len(fires) != 3 {
		t.Fatalf("stopped ticker kept firing: %v", fires)
	}
	if e.Pending() != 0 {
		t.Fatalf("stopped ticker left %d events pending after drain", e.Pending())
	}
}

// TestTickerMinimumPeriod guards against a zero-period livelock.
func TestTickerMinimumPeriod(t *testing.T) {
	e := New()
	n := 0
	tk := NewTicker(e, 0, func(Time) {
		n++
		if n >= 5 {
			e.RunUntil(e.Now()) // no-op; just to have a body
		}
	})
	tk.Start()
	e.RunUntil(5)
	tk.Stop()
	e.Run()
	if n != 5 {
		t.Fatalf("period-0 ticker (clamped to 1) fired %d times by t=5, want 5", n)
	}
}

// TestAtArg pins the pooled absolute-time variant: argument delivery,
// FIFO order against other same-cycle events, and past clamping.
func TestAtArg(t *testing.T) {
	e := New()
	var got []int
	rec := e.Bind(func(_ Time, arg int) { got = append(got, arg) })
	e.AtArg(10, rec, 1)
	e.At(10, func(Time) { got = append(got, 2) })
	e.AtArg(10, rec, 3)
	e.Schedule(20, func(Time) {
		e.AtArg(5, rec, 4) // past: clamps to now=20, runs this cycle
	})
	e.Run()
	if len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("AtArg order/args %v, want [1 2 3 4]", got)
	}
	if e.Now() != 20 {
		t.Fatalf("final clock %d, want 20", e.Now())
	}
}

// TestRunUntilParksWithOnlyHeapEvents pins a deadline stop taken while
// the ring is empty and every pending event sits in the far heap: the
// clock parks at the deadline, exactly the heap events that entered
// the window migrate into the ring, and everything later runs in
// (time, insertion-order) order.
func TestRunUntilParksWithOnlyHeapEvents(t *testing.T) {
	e := New()
	var ran []int
	for i, at := range []Time{2*ringSize + 5, ringSize + 10, 3 * ringSize, ringSize + 10} {
		i := i
		e.At(at, func(Time) { ran = append(ran, i) })
	}
	if e.ringN != 0 || len(e.far) != 4 {
		t.Fatalf("ring %d / heap %d before the stop, want 0 / 4", e.ringN, len(e.far))
	}
	if e.RunUntil(100) {
		t.Fatal("queue should not drain by t=100")
	}
	if e.Now() != 100 || e.Pending() != 4 {
		t.Fatalf("after the stop: clock %d, pending %d; want 100, 4", e.Now(), e.Pending())
	}
	if e.ringN != 2 || len(e.far) != 2 {
		t.Fatalf("ring %d / heap %d after the stop, want 2 / 2 (the two cycle-%d events migrate)", e.ringN, len(e.far), ringSize+10)
	}
	e.Run()
	if want := []int{1, 3, 0, 2}; fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
}

// TestOccupancyScanAcrossWordsAndWrap pins the occupancy index's scan
// from a clock in the middle of a 64-cycle word: the last cycle of the
// clock's word, the first of the next word, both sides of a summary
// word (4,096 cycles), and a cycle one short of a full lap ahead, whose
// ring index lies just behind the clock's own.
func TestOccupancyScanAcrossWordsAndWrap(t *testing.T) {
	e := New()
	e.Schedule(100, func(Time) {})
	e.Run()
	want := []Time{127, 128, 4095, 4096, 100 + ringSize - 1}
	for i := len(want) - 1; i >= 0; i-- {
		e.At(want[i], func(Time) {})
	}
	for _, w := range want {
		if got, ok := e.peek(); !ok || got != w {
			t.Fatalf("peek = %d, %v; want %d", got, ok, w)
		}
		e.Step()
		if e.Now() != w {
			t.Fatalf("stepped to %d, want %d", e.Now(), w)
		}
	}
	// The clock now sits at ring cycle 99. Park it at cycle 4296 (word
	// 67, summary word 1); then let the only pending event lie just
	// behind the clock, first elsewhere in its summary word, then in its
	// own occupancy word: the scan has to come all the way round.
	e.At(e.Now()+4296-99, func(Time) {})
	e.Step()
	for _, back := range []Time{150, 6} {
		at := e.Now() + ringSize - back
		e.At(at, func(Time) {})
		if got, ok := e.peek(); !ok || got != at {
			t.Fatalf("peek = %d, %v; want %d (ring cycle %d behind clock cycle %d)", got, ok, at, at&ringMask, e.Now()&ringMask)
		}
		e.Step()
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left", e.Pending())
	}
}

// TestBoundAndSideEventsInterleaveInOneCycle queues bound handlers and
// side-table closures for one cycle in alternation; each one, when it
// runs, queues a zero-delay event of the other kind. Everything must
// run in insertion order, exactly as on the reference engine.
func TestBoundAndSideEventsInterleaveInOneCycle(t *testing.T) {
	run := func(e schedulerAPI) []int {
		var order []int
		var h Handler
		side := func(i int) Event {
			return func(Time) {
				order = append(order, i)
				if i < 100 {
					e.ScheduleArg(0, h, i+100)
				}
			}
		}
		h = e.Bind(func(_ Time, arg int) {
			order = append(order, arg)
			if arg < 100 {
				e.Schedule(0, side(arg+100))
			}
		})
		for i := 0; i < 6; i++ {
			if i%2 == 0 {
				e.At(7, side(i))
			} else {
				e.AtArg(7, h, i)
			}
		}
		e.Run()
		if e.Now() != 7 {
			t.Fatalf("clock %d, want 7: every event belongs to cycle 7", e.Now())
		}
		return order
	}
	got, ref := run(New()), run(NewReference())
	want := []int{0, 1, 2, 3, 4, 5, 100, 101, 102, 103, 104, 105}
	if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(ref) != fmt.Sprint(want) {
		t.Fatalf("order %v (reference %v), want %v", got, ref, want)
	}
}

// TestResetDiscardsSideTableCallbacks pins that Reset drops the
// closures of queued side-table events along with the events, so none
// runs and none stays reachable, while bound handlers stay bound.
func TestResetDiscardsSideTableCallbacks(t *testing.T) {
	e := New()
	ran := 0
	h := e.Bind(func(Time, int) { ran++ })
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i)+3, func(Time) { t.Fatal("a discarded closure ran") })
		e.ScheduleArg(Time(i), h, i)
	}
	e.Schedule(3*ringSize, func(Time) { t.Fatal("a discarded far closure ran") })
	e.RunUntil(2) // runs the handler's first three events only
	if ran != 3 {
		t.Fatalf("bound handler ran %d times before the stop, want 3", ran)
	}
	e.Reset()
	if len(e.side) != 0 || e.sideFree != 0 {
		t.Fatalf("Reset kept %d side-table entries (free head %d)", len(e.side), e.sideFree)
	}
	if e.Pending() != 0 {
		t.Fatalf("Reset left %d events", e.Pending())
	}
	e.ScheduleArg(4, h, 0)
	var at Time
	e.Schedule(5, func(now Time) { at = now })
	e.Run()
	if ran != 4 || at != 5 {
		t.Fatalf("after Reset: bound handler ran %d times (want 4), closure at %d (want 5)", ran, at)
	}
}

// TestQueueEntriesArePointerFree pins the property the queue layout is
// built on: a slab record and a far-heap entry hold no pointer, so the
// garbage collector never scans them and moving them needs no write
// barrier, and a record stays 16 bytes.
func TestQueueEntriesArePointerFree(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(record{}), reflect.TypeOf(farEntry{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
				reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
				reflect.Float32, reflect.Float64, reflect.Bool:
			default:
				t.Errorf("%s.%s is a %s: queue entries must hold integers only", typ.Name(), f.Name, f.Type.Kind())
			}
		}
	}
	if n := unsafe.Sizeof(record{}); n != 16 {
		t.Errorf("record is %d bytes, want 16", n)
	}
}

// TestResetKeepsStorage: a drained engine's Reset keeps the slab, far
// heap and side table it grew, so it runs the same schedule again
// without allocating, in the same order as a new engine.
func TestResetKeepsStorage(t *testing.T) {
	var order []int
	run := func(e *Engine, h Handler) {
		for i := 0; i < 2000; i++ {
			e.ScheduleArg(Time(i%97), h, i)
		}
		e.ScheduleArg(3*ringSize, h, -1)
		e.Schedule(5, func(Time) {})
		e.Run()
	}
	e := New()
	h := e.Bind(func(_ Time, arg int) { order = append(order, arg) })
	run(e, h)
	slab, far, side := cap(e.slab), cap(e.far), cap(e.side)
	order = make([]int, 0, 2*len(order))
	allocs := testing.AllocsPerRun(3, func() {
		order = order[:0]
		e.Reset()
		run(e, h)
	})
	if allocs != 0 {
		t.Fatalf("a reset engine allocated %.0f times rerunning its schedule", allocs)
	}
	if cap(e.slab) != slab || cap(e.far) != far || cap(e.side) != side {
		t.Fatalf("storage changed across Reset: slab %d→%d, far %d→%d, side %d→%d",
			slab, cap(e.slab), far, cap(e.far), side, cap(e.side))
	}
	got := slices.Clone(order)
	fresh := New()
	order = order[:0]
	run(fresh, fresh.Bind(func(_ Time, arg int) { order = append(order, arg) }))
	if !slices.Equal(got, order) || fresh.Executed() != e.Executed() || fresh.Now() != e.Now() {
		t.Fatalf("a reset engine ran %d events to %d, a new one %d to %d, or in another order",
			e.Executed(), e.Now(), fresh.Executed(), fresh.Now())
	}
}
