package sim

import (
	"fmt"
	"sync"
)

// ParallelEngine runs N Engine shards — in the GPU model, one per
// socket plus a fabric/home shard — under a conservative parallel
// discrete-event protocol. Cross-shard traffic must respect a lookahead
// bound L (the minimum inter-socket path latency, derived from the
// fabric topology): an event sent from one shard can only affect
// another shard at least L cycles in the future, which is exactly the
// classical conservative-PDES null-message guarantee.
//
// The engine has two execution modes:
//
//   - Windowed (NewParallel): shards free-run independently inside
//     synchronization windows [floor, floor+L-1], where floor is the
//     earliest pending event across all shards. Cross-shard events go
//     through per-source mailboxes (pooled, zero-alloc slots) and are
//     merged at the window barrier in deterministic (time, srcShard,
//     sendSeq) order, so the schedule is reproducible regardless of how
//     many OS threads execute the window (SetWorkers). Within a window
//     shards only observe their own state, so this mode is safe for
//     true concurrency — the race job runs it under -race.
//
//   - Lockstep (NewLockstep): all shards share a single stamp counter
//     and the executor always runs the globally next (time, seq) event,
//     advancing every shard clock together. The observable schedule is
//     byte-identical to one serial Engine carrying all events — by
//     construction, not by luck — which is what lets the GPU model run
//     sharded under the golden-master tier. Cross-shard interactions
//     still must respect L; xlink.Fabric stamps every routed message
//     and NoteCross panics on a sub-bound delivery, so the conservative
//     bound is validated on every sharded model run even though the
//     lockstep executor would tolerate violating it.
//
// The model uses lockstep because its sockets are synchronously coupled
// outside the event queue (first-touch page placement, home-side L2/DRAM
// service, the drain counter); the windowed mode is the execution path
// for decoupled programs and is held to the lockstep/serial contract by
// TestParallelEquivalence and FuzzParallelEquivalence.
type ParallelEngine struct {
	shards    []*Engine
	lookahead Time
	lockstep  bool
	workers   int

	clock Time   // lockstep: global clock; windowed: floor of the last window
	gseq  uint64 // lockstep: shared stamp counter (shards' seqp points here)

	// Windowed mode: per-source mailboxes and the barrier merge buffer.
	// Slots are pooled — slices keep their capacity and entries are
	// zeroed after the merge so callback references are released without
	// per-window allocation.
	outbox  [][]crossMsg
	sendSeq []uint64
	merged  []crossMsg

	windows uint64 // synchronization windows executed (windowed mode)
	crossN  uint64 // cross-shard events delivered (both modes)

	// Lockstep head cache: pickLockstep would otherwise re-scan every
	// shard's ring per event. A shard's cached head (at, seq, ok) stays
	// valid while its insert counter (seq) and execution counter (nRun)
	// are unchanged — clock advances don't move heads, so the snapshot
	// check is the only invalidation needed.
	headAt   []Time
	headSeq  []uint64
	headOK   []bool
	snapSeq  []uint64
	snapRun  []uint64
	headInit []bool
}

// crossMsg is one pooled cross-shard mailbox slot: a scheduled event
// plus its deterministic merge stamp.
type crossMsg struct {
	at  Time
	src int32
	dst int32
	seq uint64 // per-source send sequence
	fn  Event
	tfn func()
	afn ArgEvent
	arg int
}

// NewParallel returns a windowed-mode engine with n shards and the
// given lookahead bound. It panics if n < 1 or lookahead < 1: a zero
// lookahead admits same-cycle cross-shard causality, which no
// conservative window can order.
func NewParallel(n int, lookahead Time) *ParallelEngine {
	pe := newParallelEngine(n, lookahead)
	pe.outbox = make([][]crossMsg, n)
	pe.sendSeq = make([]uint64, n)
	return pe
}

// NewLockstep returns a lockstep-mode engine with n shards and the
// given lookahead bound (panicking on n < 1 or lookahead < 1, like
// NewParallel). All shards stamp events from one shared counter; the
// executor interleaves them exactly as a single serial Engine would.
func NewLockstep(n int, lookahead Time) *ParallelEngine {
	pe := newParallelEngine(n, lookahead)
	pe.lockstep = true
	for _, sh := range pe.shards {
		sh.seqp = &pe.gseq
	}
	return pe
}

func newParallelEngine(n int, lookahead Time) *ParallelEngine {
	if n < 1 {
		panic("sim: ParallelEngine needs at least one shard")
	}
	if lookahead < 1 {
		panic("sim: zero lookahead rejected: cross-shard events need a positive minimum latency")
	}
	pe := &ParallelEngine{lookahead: lookahead, workers: 1}
	for i := 0; i < n; i++ {
		pe.shards = append(pe.shards, New())
	}
	pe.headAt = make([]Time, n)
	pe.headSeq = make([]uint64, n)
	pe.headOK = make([]bool, n)
	pe.snapSeq = make([]uint64, n)
	pe.snapRun = make([]uint64, n)
	pe.headInit = make([]bool, n)
	return pe
}

// SetLookahead replaces the lookahead bound — the model derives it from
// the fabric topology (xlink.Fabric.MinPathCost) after construction.
// It panics on a zero bound, like the constructors.
func (pe *ParallelEngine) SetLookahead(l Time) {
	if l < 1 {
		panic("sim: zero lookahead rejected: cross-shard events need a positive minimum latency")
	}
	pe.lookahead = l
}

// Lookahead reports the current lookahead bound.
func (pe *ParallelEngine) Lookahead() Time { return pe.lookahead }

// SetWorkers selects how windowed-mode windows execute: 1 (the default)
// runs shards sequentially in shard order; above 1 each shard of a
// window runs on its own goroutine (the Go scheduler maps them onto
// GOMAXPROCS threads). The merged schedule is identical either way.
// Lockstep mode is inherently serial and ignores the setting.
func (pe *ParallelEngine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	pe.workers = n
}

// NumShards reports the shard count.
func (pe *ParallelEngine) NumShards() int { return len(pe.shards) }

// Shard returns shard i's engine. Components bound to shard i schedule
// their intra-shard events here; the shard engines must only be driven
// (Run/RunUntil/Step) through the ParallelEngine.
func (pe *ParallelEngine) Shard(i int) *Engine { return pe.shards[i] }

// Now reports the global virtual time: the lockstep clock, or in
// windowed mode the furthest shard clock (shards are never more than a
// window apart).
func (pe *ParallelEngine) Now() Time {
	if pe.lockstep {
		return pe.clock
	}
	var t Time
	for _, sh := range pe.shards {
		if sh.now > t {
			t = sh.now
		}
	}
	return t
}

// Executed reports the total events run across all shards.
func (pe *ParallelEngine) Executed() uint64 {
	var n uint64
	for _, sh := range pe.shards {
		n += sh.nRun
	}
	return n
}

// ShardExecuted reports how many events shard i has run — the per-shard
// half of the event-count parity check against a serial run.
func (pe *ParallelEngine) ShardExecuted(i int) uint64 { return pe.shards[i].nRun }

// Pending reports queued events across all shards plus undelivered
// mailbox messages.
func (pe *ParallelEngine) Pending() int {
	n := 0
	for _, sh := range pe.shards {
		n += sh.Pending()
	}
	for _, ob := range pe.outbox {
		n += len(ob)
	}
	return n
}

// Windows reports how many synchronization windows windowed mode has
// executed.
func (pe *ParallelEngine) Windows() uint64 { return pe.windows }

// CrossDelivered reports how many cross-shard events have been
// delivered (mailbox merges in windowed mode, Send insertions and
// NoteCross records in lockstep mode).
func (pe *ParallelEngine) CrossDelivered() uint64 { return pe.crossN }

// checkSend validates one cross-shard send and returns its absolute
// delivery time.
func (pe *ParallelEngine) checkSend(src, dst int, delay Time) Time {
	if src == dst {
		panic("sim: cross-shard send to own shard; use Shard(i).Schedule for intra-shard events")
	}
	if delay < pe.lookahead {
		panic(fmt.Sprintf("sim: cross-shard send below the lookahead bound: delay %d < lookahead %d (shard %d → %d)",
			delay, pe.lookahead, src, dst))
	}
	return pe.shards[src].now + delay
}

// Send schedules fn on shard dst, delay cycles after shard src's
// present. delay must be at least the lookahead bound: the send models
// a physical transfer whose minimum latency the bound was derived from,
// and anything faster would have to be ordered inside the current
// window, which the protocol forbids — so it panics. In windowed mode
// the event is buffered in src's mailbox and delivered at the next
// window barrier; Send may be called from the shard's own events while
// a window executes concurrently. In lockstep mode it is inserted
// directly with the shared stamp.
func (pe *ParallelEngine) Send(src, dst int, delay Time, fn Event) {
	pe.send(src, dst, delay, crossMsg{fn: fn})
}

// SendThunk is Send for a clock-ignoring callback.
func (pe *ParallelEngine) SendThunk(src, dst int, delay Time, fn func()) {
	pe.send(src, dst, delay, crossMsg{tfn: fn})
}

// SendArg is Send for a long-lived ArgEvent callback plus argument.
func (pe *ParallelEngine) SendArg(src, dst int, delay Time, fn ArgEvent, arg int) {
	pe.send(src, dst, delay, crossMsg{afn: fn, arg: arg})
}

func (pe *ParallelEngine) send(src, dst int, delay Time, m crossMsg) {
	at := pe.checkSend(src, dst, delay)
	if pe.lockstep {
		pe.shards[dst].insertMsg(at, &m)
		pe.crossN++
		return
	}
	m.at = at
	m.src = int32(src)
	m.dst = int32(dst)
	pe.sendSeq[src]++
	m.seq = pe.sendSeq[src]
	pe.outbox[src] = append(pe.outbox[src], m)
}

// NoteCross records a cross-shard delivery carried by model machinery
// outside Send — an xlink.Fabric route completion executing on the
// destination's timeline — and asserts it respected the lookahead
// bound. sentAt is the stamp taken when the message entered the fabric.
// A sub-bound delivery means the derived lookahead was wrong (or the
// fabric found a faster path than MinPathCost), which would corrupt a
// windowed run silently; it panics instead.
func (pe *ParallelEngine) NoteCross(src, dst int, sentAt Time) {
	if src == dst {
		return
	}
	now := pe.Now()
	if now-sentAt < pe.lookahead {
		panic(fmt.Sprintf("sim: cross-shard delivery below the lookahead bound: sent @%d, delivered @%d, elapsed %d < lookahead %d (shard %d → %d)",
			sentAt, now, now-sentAt, pe.lookahead, src, dst))
	}
	pe.crossN++
}

// Run executes events until every shard drains and all mailboxes are
// empty, returning the final global time.
func (pe *ParallelEngine) Run() Time {
	if pe.lockstep {
		for pe.stepLockstep(^Time(0)) == stepRan {
		}
		return pe.clock
	}
	pe.runWindows(0, false)
	return pe.Now()
}

// RunUntil executes events with time ≤ deadline. It returns true if
// everything drained, false if the deadline stopped execution first
// (leaving every shard clock parked at deadline and later events still
// queued). A deadline in the past executes nothing — virtual time never
// moves backward — and reports whether the engine is drained, matching
// Engine.RunUntil.
func (pe *ParallelEngine) RunUntil(deadline Time) bool {
	if pe.lockstep {
		if deadline < pe.clock {
			return pe.Pending() == 0
		}
		for {
			switch pe.stepLockstep(deadline) {
			case stepRan:
			case stepDrained:
				return true
			case stepDeadline:
				pe.clock = deadline
				for _, sh := range pe.shards {
					sh.setNow(deadline)
				}
				return false
			}
		}
	}
	if deadline < pe.Now() {
		return pe.Pending() == 0
	}
	return pe.runWindows(deadline, true)
}

// Reset returns every shard to its zero state and clears mailboxes,
// counters, and the shared clock, like Engine.Reset.
func (pe *ParallelEngine) Reset() {
	for i, sh := range pe.shards {
		sh.Reset()
		pe.headInit[i] = false
	}
	for i := range pe.outbox {
		pe.outbox[i] = clearMsgs(pe.outbox[i])
		pe.sendSeq[i] = 0
	}
	pe.merged = clearMsgs(pe.merged)
	pe.clock, pe.gseq, pe.windows, pe.crossN = 0, 0, 0, 0
}

// clearMsgs zeroes a mailbox's used slots (releasing callback
// references) and truncates it, keeping the backing array pooled.
func clearMsgs(msgs []crossMsg) []crossMsg {
	for i := range msgs {
		msgs[i] = crossMsg{}
	}
	return msgs[:0]
}

// ---------------------------------------------------------------------
// Lockstep executor.
// ---------------------------------------------------------------------

type stepResult int

const (
	stepRan stepResult = iota
	stepDrained
	stepDeadline
)

// stepLockstep executes the globally next (time, seq) event if its time
// is ≤ deadline, advancing all shard clocks together first so every
// shard observes the same present (the property the synchronously
// coupled model relies on when one shard's event calls into another
// shard's components).
func (pe *ParallelEngine) stepLockstep(deadline Time) stepResult {
	best := -1
	var bt Time
	var bs uint64
	for i, sh := range pe.shards {
		if !pe.headInit[i] || pe.snapSeq[i] != sh.seq || pe.snapRun[i] != sh.nRun {
			pe.headAt[i], pe.headSeq[i], pe.headOK[i] = sh.peekHead()
			pe.snapSeq[i], pe.snapRun[i], pe.headInit[i] = sh.seq, sh.nRun, true
		}
		if !pe.headOK[i] {
			continue
		}
		if best == -1 || pe.headAt[i] < bt || (pe.headAt[i] == bt && pe.headSeq[i] < bs) {
			best, bt, bs = i, pe.headAt[i], pe.headSeq[i]
		}
	}
	if best == -1 {
		return stepDrained
	}
	if bt > deadline {
		return stepDeadline
	}
	if bt > pe.clock {
		pe.clock = bt
		for _, sh := range pe.shards {
			sh.setNow(bt)
		}
	}
	pe.shards[best].Step()
	return stepRan
}

// ---------------------------------------------------------------------
// Windowed executor.
// ---------------------------------------------------------------------

// runWindows drains the shards in conservative windows; with bounded
// set it stops at deadline (parking shard clocks there) and reports
// whether the engine drained.
func (pe *ParallelEngine) runWindows(deadline Time, bounded bool) bool {
	for {
		pe.mergeOutboxes()
		floor, ok := pe.minNext()
		if !ok {
			return true
		}
		if bounded && floor > deadline {
			for _, sh := range pe.shards {
				if sh.now < deadline {
					sh.setNow(deadline)
				}
			}
			return false
		}
		end := floor + pe.lookahead - 1
		if end < floor {
			end = ^Time(0) // lookahead overflow: single unbounded window
		}
		if bounded && end > deadline {
			end = deadline
		}
		pe.windows++
		pe.runWindow(end)
	}
}

// minNext reports the earliest pending event time across all shards.
func (pe *ParallelEngine) minNext() (Time, bool) {
	var floor Time
	found := false
	for _, sh := range pe.shards {
		if t, ok := sh.peek(); ok && (!found || t < floor) {
			floor, found = t, true
		}
	}
	return floor, found
}

// runWindow executes one window: every shard runs its events with time
// ≤ end. Events only touch their own shard's state (cross-shard effects
// go through Send into the source mailbox), so with workers > 1 the
// shards run on concurrent goroutines; the barrier at the end restores
// a single-threaded view before mailboxes merge.
func (pe *ParallelEngine) runWindow(end Time) {
	if pe.workers <= 1 || len(pe.shards) == 1 {
		for _, sh := range pe.shards {
			sh.RunUntil(end)
		}
		return
	}
	var wg sync.WaitGroup
	for _, sh := range pe.shards {
		wg.Add(1)
		go func(sh *Engine) {
			defer wg.Done()
			sh.RunUntil(end)
		}(sh)
	}
	wg.Wait()
}

// mergeOutboxes drains every source mailbox into the destination
// shards in (time, srcShard, sendSeq) order — the deterministic merge
// that makes the schedule independent of shard execution interleaving.
// Delivery times at least lookahead past the send point can never land
// inside an already-executed window, so each insert targets the
// destination's strict future; the clamp below only applies to sends
// issued from outside Run against a shard that has already drained
// further ahead, mirroring Engine.At's monotonic-time contract.
func (pe *ParallelEngine) mergeOutboxes() {
	total := 0
	for i := range pe.outbox {
		total += len(pe.outbox[i])
	}
	if total == 0 {
		return
	}
	pe.merged = pe.merged[:0]
	for i := range pe.outbox {
		pe.merged = append(pe.merged, pe.outbox[i]...)
		pe.outbox[i] = clearMsgs(pe.outbox[i])
	}
	sortMsgs(pe.merged)
	for i := range pe.merged {
		m := &pe.merged[i]
		dst := pe.shards[m.dst]
		at := m.at
		if at < dst.now {
			at = dst.now
		}
		dst.insertMsg(at, m)
		pe.crossN++
	}
	pe.merged = clearMsgs(pe.merged)
}

// sortMsgs orders messages by (at, src, seq) — insertion sort, since a
// window's cross-shard traffic is small and the slice is nearly sorted
// per source already; avoids sort.Interface boxing on the pooled slice.
func sortMsgs(msgs []crossMsg) {
	for i := 1; i < len(msgs); i++ {
		m := msgs[i]
		j := i - 1
		for j >= 0 && msgLess(m, msgs[j]) {
			msgs[j+1] = msgs[j]
			j--
		}
		msgs[j+1] = m
	}
}

// insertMsg queues a cross-shard message's callback on engine e at
// absolute time at.
func (e *Engine) insertMsg(at Time, m *crossMsg) {
	r := e.insert(at)
	r.fn, r.tfn, r.afn, r.arg = m.fn, m.tfn, m.afn, m.arg
}

func msgLess(a, b crossMsg) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}
