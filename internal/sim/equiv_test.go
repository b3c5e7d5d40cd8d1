package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// schedulerAPI is the surface shared by the calendar-queue Engine and the
// ReferenceEngine, letting one program drive both implementations.
type schedulerAPI interface {
	Now() Time
	Executed() uint64
	Pending() int
	Bind(ArgEvent) Handler
	Call(Handler, int)
	Schedule(Time, Event)
	ScheduleArg(Time, Handler, int)
	At(Time, Event)
	AtArg(Time, Handler, int)
	Step() bool
	Run() Time
	RunUntil(Time) bool
	Reset()
}

var (
	_ schedulerAPI = (*Engine)(nil)
	_ schedulerAPI = (*ReferenceEngine)(nil)
)

// traceEntry records one observed event execution: which program op
// spawned it and the clock it saw.
type traceEntry struct {
	id int
	at Time
}

// opInterp replays an opcode program on a scheduler. Every executed
// event appends to the trace and consumes further opcodes, so programs
// exercise nested scheduling (events scheduling events), zero delays,
// far-future delays across the ring window, At clamping into the past,
// flag-based cancellation (the model's idiom: a stop flag checked at
// fire time, as used by Ticker and the policy samplers), and the seams
// of the ring's layout: delays that cross an occupancy-index word (64
// cycles) or summary word (4,096 cycles) boundary from wherever the
// clock sits inside the word, delays that wrap the ring round past the
// clock's own cycle, and events more than one ring ahead. Events go
// through both queue paths, interleaved: plain closures (the side
// table) and one bound handler carrying the op's id as its argument.
type opInterp struct {
	eng    schedulerAPI
	argH   Handler // bound once: records its arg and runs the next op
	ops    []byte
	pc     int
	nextID int
	trace  []traceEntry
	flags  [4]bool // cancellation flags toggled by the program
}

func newInterp(eng schedulerAPI, ops []byte) *opInterp {
	in := &opInterp{eng: eng, ops: ops}
	in.argH = eng.Bind(func(now Time, arg int) {
		in.trace = append(in.trace, traceEntry{id: arg, at: now})
		in.exec()
	})
	return in
}

func (in *opInterp) next() (byte, bool) {
	if in.pc >= len(in.ops) {
		return 0, false
	}
	b := in.ops[in.pc]
	in.pc++
	return b, true
}

// exec consumes and performs one opcode, returning false when the
// program is exhausted.
func (in *opInterp) exec() bool {
	op, ok := in.next()
	if !ok {
		return false
	}
	val, _ := in.next() // zero if the program ends mid-op
	id := in.nextID
	in.nextID++
	record := func(now Time) {
		in.trace = append(in.trace, traceEntry{id: id, at: now})
		in.exec() // nested: each event performs the next program op
	}
	switch op % 12 {
	case 0: // small constant delay — the ring hot path
		in.eng.Schedule(Time(val%64), record)
	case 1: // zero delay — same-cycle FIFO
		in.eng.Schedule(0, record)
	case 2: // far future — crosses the ring window into the heap
		in.eng.Schedule(ringSize+Time(val)*13, record)
	case 3: // ring boundary straddle
		in.eng.Schedule(ringSize-2+Time(val%5), record)
	case 4: // absolute time, sometimes in the past (clamps to now)
		at := Time(val) * 7
		in.eng.At(at, record)
	case 5: // bound handler, this cycle or an early one: interleaves with side events
		in.eng.ScheduleArg(Time(val%4), in.argH, id)
	case 6: // bound handler
		in.eng.ScheduleArg(Time(val%100), in.argH, id)
	case 7: // bound handler at an absolute time, sometimes clamped to the past
		in.eng.AtArg(Time(val)*7, in.argH, id)
	case 8: // cancellable event: fires, but a flag decides if it acts
		f := int(val) % len(in.flags)
		if val%2 == 0 {
			in.flags[f] = !in.flags[f] // toggle now…
			in.eng.Schedule(Time(val%32), record)
		} else {
			in.eng.Schedule(Time(val%32), func(now Time) { // …or check at fire time
				if in.flags[f] {
					return // cancelled: no trace, no nested op
				}
				record(now)
			})
		}
	case 9: // land one cycle either side of the next occupancy-word boundary
		word := Time(64)
		if val&4 != 0 {
			word = 64 * 64 // a summary-word boundary
		}
		now := in.eng.Now()
		in.eng.Schedule(word-now%word+Time(val%3)-1, record)
	case 10: // wrap the ring: just under a full lap, behind the clock's own cycle
		in.eng.Schedule(ringSize-1-Time(val%64), record)
	case 11: // more than a full ring ahead: migrates only after later laps
		in.eng.Schedule(2*ringSize+Time(val)*977, record)
	}
	return true
}

// runProgram replays ops on eng: it seeds the queue with up to 8
// initial ops (the rest are consumed by executing events), then drains
// the engine in RunUntil slices to exercise deadline stops, returning
// the execution trace and final state.
func runProgram(eng schedulerAPI, ops []byte) ([]traceEntry, Time, uint64, int) {
	in := newInterp(eng, ops)
	for i := 0; i < 8 && in.exec(); i++ {
	}
	// Drain in uneven deadline slices so RunUntil's clock-parking path
	// (setting now to a cycle with no event) is part of the comparison.
	// Each slice also issues a deadline in the past, which must execute
	// nothing and leave all state untouched.
	for d := Time(100); !eng.RunUntil(d); d = d*3 + 41 {
		eng.RunUntil(d / 2)
	}
	eng.RunUntil(0)
	eng.Run()
	return in.trace, eng.Now(), eng.Executed(), eng.Pending()
}

// diffTraces fails t on the first divergence between the two engines'
// observations.
func diffTraces(t *testing.T, ops []byte, bkt, ref []traceEntry) {
	t.Helper()
	n := len(bkt)
	if len(ref) < n {
		n = len(ref)
	}
	for i := 0; i < n; i++ {
		if bkt[i] != ref[i] {
			t.Fatalf("ops %x: execution traces diverge at %d: engine ran op %d @%d, reference op %d @%d",
				ops, i, bkt[i].id, bkt[i].at, ref[i].id, ref[i].at)
		}
	}
	if len(bkt) != len(ref) {
		t.Fatalf("ops %x: trace lengths diverge: engine %d events, reference %d", ops, len(bkt), len(ref))
	}
}

func checkEquivalence(t *testing.T, ops []byte) {
	t.Helper()
	bt, bNow, bExec, bPend := runProgram(New(), ops)
	rt, rNow, rExec, rPend := runProgram(NewReference(), ops)
	diffTraces(t, ops, bt, rt)
	if bNow != rNow {
		t.Fatalf("ops %x: final clock %d vs reference %d", ops, bNow, rNow)
	}
	if bExec != rExec {
		t.Fatalf("ops %x: Executed %d vs reference %d", ops, bExec, rExec)
	}
	if bPend != 0 || rPend != 0 {
		t.Fatalf("ops %x: events left pending after drain: engine %d, reference %d", ops, bPend, rPend)
	}
}

// TestSchedulerEquivalence differential-tests the calendar-queue engine
// against the reference heap on a deterministic battery of random
// event programs: same inputs must produce identical execution traces,
// clocks, and accounting.
func TestSchedulerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		ops := make([]byte, rng.Intn(400))
		rng.Read(ops)
		checkEquivalence(t, ops)
	}
}

// FuzzSchedulerEquivalence lets the fuzzer hunt for an event program on
// which the calendar-queue scheduler and the reference heap disagree. Run
// longer with: go test -fuzz=FuzzSchedulerEquivalence ./internal/sim
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 5, 1, 0, 2, 3, 3, 255, 4, 9, 5, 70, 6, 12, 7, 3})
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096] // bound program size, not coverage
		}
		checkEquivalence(t, ops)
	})
}

// TestEquivalenceKnownHardCases pins programs that target the seams of
// the calendar-queue design specifically.
func TestEquivalenceKnownHardCases(t *testing.T) {
	cases := map[string][]byte{
		// Everything lands on one far cycle: heap FIFO by seq.
		"far-same-cycle": {2, 1, 2, 1, 2, 1, 2, 1},
		// Alternate ring and heap inserts at the window edge.
		"window-edge": {3, 0, 3, 1, 3, 2, 3, 3, 3, 4, 3, 0},
		// Past-At clamping intermixed with zero delays.
		"past-at": {0, 20, 4, 0, 1, 0, 4, 1, 1, 0},
		// Deep nesting: every event schedules the next.
		"chain": func() []byte {
			var b []byte
			for i := 0; i < 200; i++ {
				b = append(b, byte(i%8), byte(i*11))
			}
			return b
		}(),
		// From a clock inside a word, hop across word and summary-word
		// boundaries: the occupancy scan must leave the current word.
		"word-boundary": {4, 5, 9, 0, 9, 1, 9, 2, 9, 4, 9, 5, 9, 6, 0, 37, 9, 1, 9, 6},
		// With the clock mid-ring, land behind it by a full lap less a
		// little, so the target cycle's index is below the clock's.
		"ring-wrap": {0, 50, 10, 0, 10, 63, 0, 3, 10, 7, 4, 200, 10, 1, 10, 2},
		// Only heap events pending: every RunUntil slice parks the clock
		// with the ring empty, migrating the heap in several waves.
		"heap-only-park": {2, 0, 11, 255, 2, 255, 11, 0, 2, 77, 11, 128},
		// A far event and a wrapped ring event for neighbouring cycles.
		"far-and-wrap": {0, 10, 10, 0, 2, 0, 10, 9, 11, 3, 9, 4},
		// Bound handlers and side-table closures queued for one cycle,
		// in alternation, each scheduling more of the other kind.
		"bound-and-side-one-cycle": {1, 0, 5, 0, 1, 0, 5, 4, 4, 0, 7, 0, 1, 0, 5, 8, 8, 2},
		// Far events of both kinds for one cycle, then a bound ring
		// insert for the same cycle once it has entered the window.
		"far-then-ring-bound": {2, 0, 7, 0, 2, 0, 5, 0, 0, 3, 6, 0},
	}
	for name, ops := range cases {
		t.Run(name, func(t *testing.T) { checkEquivalence(t, ops) })
	}
}

// TestMigrationPreservesInsertionOrder pins the subtlest ordering case:
// an event scheduled long in advance (via the far heap) and an event
// scheduled later but directly into the ring for the same cycle must
// run in insertion order — the heap migration may not reorder them.
// Both queue paths take part: a far bound handler and a far closure,
// then a closure and a bound handler inserted into the ring once the
// cycle is inside the window.
func TestMigrationPreservesInsertionOrder(t *testing.T) {
	e := New()
	var got []string
	h := e.Bind(func(_ Time, arg int) { got = append(got, fmt.Sprint("bound-", arg)) })
	const target = ringSize + 500
	e.AtArg(target, h, 1)                                               // heap
	e.Schedule(target, func(Time) { got = append(got, "far-closure") }) // heap
	e.Schedule(600, func(Time) {
		// now = 600; target is now inside [600, 600+ringSize) — these
		// inserts go straight into the ring list the far events
		// migrate into.
		e.At(target, func(Time) { got = append(got, "ring-closure") })
		e.AtArg(target, h, 2)
	})
	e.Run()
	if want := "[bound-1 far-closure ring-closure bound-2]"; fmt.Sprint(got) != want {
		t.Fatalf("migration broke insertion order: %v, want %v", got, want)
	}
	if e.Now() != target {
		t.Fatalf("final clock %d, want %d", e.Now(), target)
	}
}
