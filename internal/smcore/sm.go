package smcore

import (
	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/stats"
)

type warpState uint8

const (
	warpFree warpState = iota
	warpReady
	warpWaitComp
	warpWaitMem
)

type warpSlot struct {
	state  warpState
	stream InstrStream
	comp   uint32 // compute cycles of the last issued instruction
	cta    int
	queued bool // present in the ready ring (or is the greedy current)
}

// lineBufCap sizes the SM's line buffer for the widest instruction the
// workload generator issues, so Next never has to grow it.
const lineBufCap = 48

// SM is one streaming multiprocessor: an in-order core multiplexing up
// to maxWarps resident warps with a greedy-then-round-robin scheduler.
// It issues issueWidth instructions per cycle while any warp is ready
// and sleeps otherwise; memory completions and compute-delay expiries
// wake it.
type SM struct {
	eng  *sim.Engine
	port MemPort
	id   int // SM index within its socket

	maxWarps   int
	maxCTAs    int
	issueWidth int

	warps    []warpSlot
	free     []int // free slot indices
	ready    []int // FIFO of ready warp slots; ready[rHead:] is pending
	rHead    int
	current  int // greedy warp, -1 when none
	running  bool
	nWarps   int
	nCTAs    int
	ctaLeft  map[int]int // warps still live per resident CTA
	onCTADne func(smID, ctaID int)

	// in receives each issued instruction. Its lines live in lines, the
	// one buffer the SM lends every stream's Next: the memory port
	// consumes them before execute returns, so the buffer is free again
	// for the next warp's instruction.
	in    Instr
	lines []arch.LineID

	// Handlers bound once at construction, so the per-cycle issue loop
	// and per-instruction warp wakeups schedule without allocating a
	// closure per event.
	tickEv sim.Handler
	wakeEv sim.Handler

	// Statistics.
	Issued     stats.Counter
	LoadOps    stats.Counter
	StoreOps   stats.Counter
	BusyCycles stats.Counter
}

// NewSM builds an SM with the given resident-warp and CTA capacity.
// onCTADone is invoked whenever a resident CTA retires fully, so the
// socket scheduler can dispatch the next one; it may be nil.
func NewSM(eng *sim.Engine, port MemPort, id, maxWarps, maxCTAs, issueWidth int, onCTADone func(smID, ctaID int)) *SM {
	if issueWidth < 1 {
		issueWidth = 1
	}
	s := &SM{
		eng:        eng,
		port:       port,
		id:         id,
		maxWarps:   maxWarps,
		maxCTAs:    maxCTAs,
		issueWidth: issueWidth,
		warps:      make([]warpSlot, maxWarps),
		free:       make([]int, maxWarps),
		ready:      make([]int, 0, maxWarps),
		ctaLeft:    make(map[int]int, maxCTAs),
		onCTADne:   onCTADone,
		lines:      make([]arch.LineID, 0, lineBufCap),
	}
	s.Reset()
	s.tickEv = eng.Bind(s.issueTick)
	s.wakeEv = eng.Bind(func(_ sim.Time, slot int) { s.wake(slot) })
	return s
}

// Reset empties the SM into the state NewSM built: every warp slot
// free, in the order NewSM frees them (slot 0 is launched first), no
// ready warp, and zero statistics. It keeps its storage.
func (s *SM) Reset() {
	clear(s.warps)
	s.free = s.free[:s.maxWarps]
	for i := range s.free {
		s.free[i] = s.maxWarps - 1 - i
	}
	s.ready, s.rHead = s.ready[:0], 0
	s.current, s.running = -1, false
	s.nWarps, s.nCTAs = 0, 0
	clear(s.ctaLeft)
	s.in = Instr{}
	s.Issued, s.LoadOps, s.StoreOps, s.BusyCycles = stats.Counter{}, stats.Counter{}, stats.Counter{}, stats.Counter{}
}

// ID reports the SM's index within its socket.
func (s *SM) ID() int { return s.id }

// ResidentWarps and ResidentCTAs report current occupancy.
func (s *SM) ResidentWarps() int { return s.nWarps }
func (s *SM) ResidentCTAs() int  { return s.nCTAs }

// CanAccept reports whether a CTA with the given warp count fits now.
func (s *SM) CanAccept(warps int) bool {
	return s.nCTAs < s.maxCTAs && s.nWarps+warps <= s.maxWarps && warps <= s.maxWarps
}

// Launch makes cta resident and marks all its warps ready. The caller
// must have checked CanAccept.
func (s *SM) Launch(cta CTA) {
	if !s.CanAccept(len(cta.Warps)) {
		panic("smcore: Launch without capacity")
	}
	s.nCTAs++
	s.ctaLeft[cta.ID] += len(cta.Warps)
	for _, stream := range cta.Warps {
		slot := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		s.warps[slot] = warpSlot{state: warpReady, stream: stream, cta: cta.ID}
		s.nWarps++
		s.pushReady(slot)
	}
	s.kick()
}

// pushReady enqueues a slot. The queued flag is a best-effort
// de-duplicator only: a slot whose warp retired while queued and whose
// slot was relaunched may appear twice. popReady tolerates duplicates
// and stale entries by validating the warp state, so correctness never
// depends on the at-most-once property.
func (s *SM) pushReady(slot int) {
	if s.warps[slot].queued {
		return
	}
	s.warps[slot].queued = true
	s.ready = append(s.ready, slot)
}

func (s *SM) popReady() (int, bool) {
	for s.rHead < len(s.ready) {
		slot := s.ready[s.rHead]
		s.rHead++
		if s.rHead == len(s.ready) {
			s.ready = s.ready[:0]
			s.rHead = 0
		} else if s.rHead >= 256 && s.rHead*2 >= len(s.ready) {
			// Compact the consumed prefix so the queue cannot grow
			// unboundedly across a long kernel.
			n := copy(s.ready, s.ready[s.rHead:])
			s.ready = s.ready[:n]
			s.rHead = 0
		}
		s.warps[slot].queued = false
		if s.warps[slot].state == warpReady {
			return slot, true
		}
	}
	return -1, false
}

// kick ensures the issue loop is scheduled while work exists.
func (s *SM) kick() {
	if s.running {
		return
	}
	s.running = true
	s.eng.ScheduleArg(0, s.tickEv, 0)
}

// issueTick is one cycle of the issue loop (its argument is unused).
func (s *SM) issueTick(now sim.Time, _ int) {
	issued := 0
	for issued < s.issueWidth {
		slot := s.pick()
		if slot < 0 {
			break
		}
		s.execute(now, slot)
		issued++
	}
	if issued > 0 {
		s.BusyCycles.Inc()
	}
	if s.anyReady() {
		s.eng.ScheduleArg(1, s.tickEv, 0)
	} else {
		s.running = false
	}
}

// pick implements greedy-then-round-robin: stick with the current warp
// while it stays ready, otherwise rotate to the next ready warp.
func (s *SM) pick() int {
	if s.current >= 0 && s.warps[s.current].state == warpReady {
		return s.current
	}
	if slot, ok := s.popReady(); ok {
		s.current = slot
		return slot
	}
	return -1
}

func (s *SM) anyReady() bool {
	if s.current >= 0 && s.warps[s.current].state == warpReady {
		return true
	}
	for _, slot := range s.ready[s.rHead:] {
		if s.warps[slot].state == warpReady {
			return true
		}
	}
	return false
}

// execute issues the next instruction of the warp in slot.
func (s *SM) execute(now sim.Time, slot int) {
	w := &s.warps[slot]
	in := &s.in
	in.Lines = s.lines[:0]
	if !w.stream.Next(in) {
		s.retire(slot)
		return
	}
	w.comp = in.Comp
	s.Issued.Inc()

	switch in.Op {
	case OpLoad:
		s.LoadOps.Inc()
		w.state = warpWaitMem
		s.port.Load(s.id, in.Lines, slot)
	case OpStore:
		s.StoreOps.Inc()
		s.port.Store(s.id, in.Lines)
		s.delayReady(slot, in.Comp)
	default:
		s.delayReady(slot, in.Comp)
	}
}

// LoadDone is the memory system's completion callback for the warp in
// slot: every line of its outstanding load has been serviced. Any
// attached compute overlaps the outstanding load on an in-order core,
// so the warp is ready max(0, comp-latency)≈0 cycles later; the compute
// is charged before re-readying to keep issue rates honest for
// compute-heavy instructions. The slot keeps the issuing instruction's
// Comp while the warp waits (a blocked warp cannot issue), so it is read
// back here instead of travelling with the request.
func (s *SM) LoadDone(slot int) {
	w := &s.warps[slot]
	if comp := w.comp; comp > 1 {
		w.state = warpWaitComp
		s.eng.ScheduleArg(sim.Time(comp), s.wakeEv, slot)
		return
	}
	s.wake(slot)
}

// delayReady parks the warp for comp cycles of compute (minimum one
// cycle so zero-cost instructions cannot livelock the issue slot).
func (s *SM) delayReady(slot int, comp uint32) {
	w := &s.warps[slot]
	if comp <= 1 {
		w.state = warpReady // ready again next cycle; issueTick re-runs at +1
		return
	}
	w.state = warpWaitComp
	s.eng.ScheduleArg(sim.Time(comp), s.wakeEv, slot)
}

// wake returns a waiting warp to the ready ring and restarts issue.
func (s *SM) wake(slot int) {
	w := &s.warps[slot]
	if w.state == warpFree {
		return
	}
	w.state = warpReady
	s.pushReady(slot)
	s.kick()
}

// retire releases the warp slot and completes CTA accounting.
func (s *SM) retire(slot int) {
	w := &s.warps[slot]
	cta := w.cta
	*w = warpSlot{state: warpFree}
	if s.current == slot {
		s.current = -1
	}
	s.free = append(s.free, slot)
	s.nWarps--
	s.ctaLeft[cta]--
	if s.ctaLeft[cta] == 0 {
		delete(s.ctaLeft, cta)
		s.nCTAs--
		if s.onCTADne != nil {
			s.onCTADne(s.id, cta)
		}
	}
}

// Idle reports whether the SM holds no resident warps.
func (s *SM) Idle() bool { return s.nWarps == 0 }

// DebugStates reports resident warp counts by state: [ready, waitComp,
// waitMem]; a diagnostic for deadlock hunting.
func (s *SM) DebugStates() [3]int {
	var out [3]int
	for i := range s.warps {
		switch s.warps[i].state {
		case warpReady:
			out[0]++
		case warpWaitComp:
			out[1]++
		case warpWaitMem:
			out[2]++
		}
	}
	return out
}
