// Package core is the paper's primary contribution assembled into a
// single programmer-transparent NUMA GPU: a multi-socket system built
// from gpu.Sockets joined by an xlink.Fabric, driven by a locality-
// optimized runtime that decomposes each kernel into per-socket CTA
// blocks, performs software coherence at kernel boundaries, and runs
// the two adaptive mechanisms of Milic et al. (MICRO 2017): the dynamic
// asymmetric link balancer and the NUMA-aware cache partitioner.
package core

import (
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/smcore"
	"repro/internal/vmm"
	"repro/internal/xlink"
)

// Kernel is one GPU kernel of a workload: a grid of CTAs, each with a
// fixed number of warps, whose instruction streams the system executes
// to completion with a global synchronization (and software coherence
// flush) at the end.
type Kernel interface {
	Name() string
	CTAs() int
	WarpsPerCTA() int
	// Warp returns the instruction stream of warp w of CTA c.
	Warp(c, w int) smcore.InstrStream
}

// Program is a complete workload: an optional memory setup hook (for
// pre-placed buffers, e.g. data first-touched by an earlier phase) and
// a sequence of kernels executed back to back.
type Program struct {
	Name    string
	Setup   func(m *vmm.Memory)
	Kernels []Kernel
}

// System is the single logical NUMA GPU exposed to the programmer.
type System struct {
	eng     *sim.Engine
	cfg     arch.Config
	mem     *vmm.Memory
	fabric  *xlink.Fabric // nil when Sockets == 1
	sockets []*gpu.Socket
	drain   *gpu.Drain

	balancers   []*xlink.Balancer
	partitions  []*gpu.PartitionController
	obsc        *obs.Collector // nil unless cfg.Obs requests observation
	tr          *obsTrace      // nil unless cfg.Obs.Trace
	rtx         []remoteTx     // remote round-trip pool (see remoteTx)
	rtxFree     int32          // free-list head, -1 when empty
	rtxUsed     int
	readHomeEv  sim.Handler // remote protocol stages, bound once
	readRespEv  sim.Handler
	writeHomeEv sim.Handler
	bulkHomeEv  sim.Handler
	ackEv       sim.Handler
	arriveEv    sim.Handler
	kernels     []Kernel
	kernelIdx   int
	socketsLeft int
	kernelStart sim.Time
	kernelMarks []sim.Time
	kernelTimes []uint64
	endTime     sim.Time
	started     bool // Run was called since the last Reset
	finished    bool // and completed

	// Per-kernel CTA decomposition, reused across kernels and runs
	// (see partitionCTAs): one CTA list per socket, and one backing
	// array holding every CTA's warp streams.
	ctaLists [][]smcore.CTA
	warpBuf  []smcore.InstrStream
}

// NewSystem builds a NUMA GPU from cfg.
func NewSystem(cfg arch.Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:      cfg,
		mem:      vmm.NewWeighted(cfg.Sockets, cfg.Placement, socketWeights(cfg)),
		drain:    &gpu.Drain{},
		rtxFree:  -1,
		ctaLists: make([][]smcore.CTA, cfg.Sockets),
	}
	s.eng = sim.New()
	s.readHomeEv = s.eng.Bind(s.readHome)
	s.readRespEv = s.eng.Bind(s.readResp)
	s.writeHomeEv = s.eng.Bind(s.writeHome)
	s.bulkHomeEv = s.eng.Bind(s.bulkHome)
	s.ackEv = s.eng.Bind(s.ack)
	s.arriveEv = s.eng.Bind(s.arrive)
	if cfg.Sockets > 1 {
		s.fabric = xlink.NewFabric(s.eng, cfg)
	}
	if cfg.Obs.Enabled() {
		s.obsc = obs.New(cfg.Obs)
	}
	for i := 0; i < cfg.Sockets; i++ {
		var port *xlink.Port
		if s.fabric != nil {
			port = s.fabric.Port(arch.SocketID(i))
		}
		sock := gpu.NewSocket(s.eng, socketConfig(cfg, i), arch.SocketID(i), s.mem, s, port, s.drain, s.onSocketDone)
		s.sockets = append(s.sockets, sock)
		if s.obsc != nil {
			s.obsc.AddSocket(s.eng, socketConfig(cfg, i), sock)
		}
	}
	if s.obsc != nil {
		s.obsc.AddFabric(s.eng, s.fabric)
		if t := s.obsc.Trace(); t != nil {
			s.tr = newObsTrace(t, cfg.Sockets)
		}
	}
	return s, nil
}

// Obs exposes the observability collector (nil unless Config.Obs
// requested observation); read its series and trace after Run.
func (s *System) Obs() *obs.Collector { return s.obsc }

// socketConfig applies socket i's topology resource overrides (SM
// count, L2 capacity, DRAM) to the uniform configuration; with no
// topology, or an empty spec, every socket sees cfg unchanged.
func socketConfig(cfg arch.Config, i int) arch.Config {
	if cfg.Topology == nil {
		return cfg
	}
	sp := cfg.Topology.Sockets[i]
	if sp.SMs > 0 {
		cfg.SMsPerSocket = sp.SMs
	}
	if sp.L2Bytes > 0 {
		cfg.L2Bytes = sp.L2Bytes
	}
	if sp.DRAMBandwidth > 0 {
		cfg.DRAMBandwidth = sp.DRAMBandwidth
	}
	if sp.DRAMLatency > 0 {
		cfg.DRAMLatency = sp.DRAMLatency
	}
	return cfg
}

// socketWeights extracts the interleave weights from the topology; nil
// (uniform) when there is no topology or all weights are equal.
func socketWeights(cfg arch.Config) []int {
	if cfg.Topology == nil {
		return nil
	}
	w := make([]int, cfg.Sockets)
	uniform := true
	for i, sp := range cfg.Topology.Sockets {
		w[i] = sp.Weight
		if w[i] == 0 {
			w[i] = 1
		}
		if w[i] != w[0] {
			uniform = false
		}
	}
	if uniform {
		return nil
	}
	return w
}

// MustSystem is NewSystem that panics on config errors; for examples
// and tests with known-good configurations.
func MustSystem(cfg arch.Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Engine exposes the simulation engine (examples, tests).
func (s *System) Engine() *sim.Engine { return s.eng }

// Config reports the system configuration.
func (s *System) Config() arch.Config { return s.cfg }

// Memory exposes the unified virtual memory map.
func (s *System) Memory() *vmm.Memory { return s.mem }

// Socket exposes socket i.
func (s *System) Socket(i int) *gpu.Socket { return s.sockets[i] }

// Fabric exposes the interconnect (nil for single-socket systems).
func (s *System) Fabric() *xlink.Fabric { return s.fabric }

// KernelLaunches reports the cycle at which each kernel launched, in
// launch order: Figure 5's kernel markers. Complete after Run.
func (s *System) KernelLaunches() []sim.Time { return s.kernelMarks }

// ---------------------------------------------------------------------
// gpu.Remote implementation: traffic between sockets.
// ---------------------------------------------------------------------

// remoteTx is one in-flight remote round trip: a line read, a line
// write or a bulk flush burst from socket src to home and back. Records
// live in System.rtx on an index-linked free list, and every protocol
// stage schedules the next through a bound handler carrying the record
// index — the gpu datapath's pooling idiom, so a remote
// access allocates nothing. A fabric delivery calls its stage directly,
// without an event of its own, which keeps the protocol's event
// schedule, and with it every result, fixed.
type remoteTx struct {
	src, home arch.SocketID
	line      arch.LineID
	lines     int         // bulk flush burst size
	done      sim.Handler // the requester's continuation; 0 runs nothing
	arg       int
	t0        sim.Time // trace span start (Config.Obs.Trace only)
	name      int32    // interned trace span name
	next      int32    // free-list link
}

// getTx takes a pooled round-trip record for a transfer src → home.
func (s *System) getTx(src, home arch.SocketID, done sim.Handler, arg int) int {
	i := s.rtxFree
	if i < 0 {
		s.rtx = append(s.rtx, remoteTx{})
		i = int32(len(s.rtx) - 1)
	} else {
		s.rtxFree = s.rtx[i].next
	}
	s.rtxUsed++
	t := &s.rtx[i]
	t.src, t.home, t.done, t.arg = src, home, done, arg
	return int(i)
}

// RemoteRead implements gpu.Remote: request to home, home-side service,
// data response back.
func (s *System) RemoteRead(src, home arch.SocketID, l arch.LineID, done sim.Handler, arg int) {
	i := s.getTx(src, home, done, arg)
	s.rtx[i].line = l
	if s.tr != nil {
		s.traceXfer(s.tr.read, i)
	}
	s.fabric.RouteArg(src, home, s.cfg.RequestHeader, s.readHomeEv, i)
}

// readHome serves a read request that has reached its home socket.
func (s *System) readHome(_ sim.Time, i int) {
	s.sockets[s.rtx[i].home].HomeRead(s.rtx[i].line, s.readRespEv, i)
}

// readResp ships the served line back to the requester.
func (s *System) readResp(_ sim.Time, i int) {
	t := &s.rtx[i]
	s.fabric.RouteArg(t.home, t.src, arch.LineSize+s.cfg.ResponseHeader, s.arriveEv, i)
}

// RemoteWrite implements gpu.Remote: full line to home, small ack back.
func (s *System) RemoteWrite(src, home arch.SocketID, l arch.LineID, done sim.Handler, arg int) {
	i := s.getTx(src, home, done, arg)
	s.rtx[i].line = l
	if s.tr != nil {
		s.traceXfer(s.tr.write, i)
	}
	s.fabric.RouteArg(src, home, arch.LineSize+s.cfg.RequestHeader, s.writeHomeEv, i)
}

// writeHome applies a line write that has reached its home socket.
func (s *System) writeHome(_ sim.Time, i int) {
	s.sockets[s.rtx[i].home].HomeWrite(s.rtx[i].line, s.ackEv, i)
}

// RemoteWriteBulk implements gpu.Remote for aggregated flush bursts.
func (s *System) RemoteWriteBulk(src, home arch.SocketID, n int, done sim.Handler, arg int) {
	i := s.getTx(src, home, done, arg)
	s.rtx[i].lines = n
	if s.tr != nil {
		s.traceXfer(s.tr.bulk, i)
	}
	s.fabric.RouteArg(src, home, n*arch.LineSize+s.cfg.RequestHeader, s.bulkHomeEv, i)
}

// bulkHome drains a flush burst that has reached its home socket.
func (s *System) bulkHome(_ sim.Time, i int) {
	s.sockets[s.rtx[i].home].HomeWriteBulk(s.rtx[i].lines, s.ackEv, i)
}

// ack returns a write or flush acknowledgement to the requester.
func (s *System) ack(_ sim.Time, i int) {
	t := &s.rtx[i]
	s.fabric.RouteArg(t.home, t.src, s.cfg.RequestHeader, s.arriveEv, i)
}

// arrive completes a round trip back at its requester: the trace span
// closes, the record returns to the pool, and the requester's
// continuation runs.
func (s *System) arrive(now sim.Time, i int) {
	t := s.rtx[i] // copied: released before the continuation runs
	if s.tr != nil {
		s.tr.t.Span(t.name, int32(t.src), int32(1+t.home), t.t0, now)
	}
	s.rtx[i] = remoteTx{next: s.rtxFree}
	s.rtxFree = int32(i)
	s.rtxUsed--
	if t.done != 0 {
		s.eng.Call(t.done, t.arg)
	}
}

// traceXfer stamps round trip i so that it lands in the trace ring as
// one span on (pid = src socket, tid = 1 + home socket) when it
// arrives back; tid 0 is the socket's kernel lane. Only called when
// tracing is on — the off path costs a nil check per transfer.
func (s *System) traceXfer(kind []int32, i int) {
	t := &s.rtx[i]
	t.name = kind[int(t.src)*s.cfg.Sockets+int(t.home)]
	t.t0 = s.eng.Now()
}

// ---------------------------------------------------------------------
// Runtime: kernel decomposition, launch, coherence, completion.
// ---------------------------------------------------------------------

// Reset returns a System whose Run completed to the state NewSystem
// built, so that it can run the next program of the same
// configuration: the engine, memory map, fabric, sockets and drain are
// reset in place, and every pool, table, cache array and event slab
// keeps the storage it grew to. The next Run's Result is identical to
// a fresh System's. A System that has not run yet is left as it is.
// Reset refuses an observed System, whose series and trace belong to
// one run, and a System whose Run did not finish, whose state is
// unknown; build a fresh System instead.
func (s *System) Reset() error {
	switch {
	case s.obsc != nil:
		return errors.New("core: an observed System cannot be reset")
	case s.started && !s.finished:
		return errors.New("core: cannot reset a System whose Run did not finish")
	case !s.started:
		return nil
	}
	s.eng.Reset()
	s.mem.Reset()
	if s.fabric != nil {
		s.fabric.Reset()
	}
	for _, sock := range s.sockets {
		sock.Reset()
	}
	s.drain.Reset()
	s.balancers, s.partitions = nil, nil
	s.rtx, s.rtxFree, s.rtxUsed = s.rtx[:0], -1, 0
	clear(s.warpBuf) // drop the last program's streams
	s.kernels, s.kernelIdx, s.socketsLeft, s.kernelStart = nil, 0, 0, 0
	// New slices, not truncated ones: the last Result keeps its
	// KernelCycles and a caller its KernelLaunches.
	s.kernelMarks, s.kernelTimes = nil, nil
	s.endTime, s.started, s.finished = 0, false, false
	return nil
}

// Run executes prog to completion and returns its measurements. A
// System runs once per Reset: a second Run without one panics.
func (s *System) Run(prog Program) Result {
	if s.started {
		panic("core: System already ran; Reset it (or build a new one) before the next Run")
	}
	s.started = true
	if prog.Setup != nil {
		prog.Setup(s.mem)
	}
	s.kernels = prog.Kernels
	s.startPolicies()
	s.launchNext()
	s.eng.Run()
	if !s.finished {
		msg := fmt.Sprintf("core: simulation deadlocked: kernel %d/%d, socketsLeft=%d, drain=%d",
			s.kernelIdx, len(s.kernels), s.socketsLeft, s.drain.Outstanding())
		for i, sock := range s.sockets {
			msg += fmt.Sprintf("; sock%d idle=%v", i, sock.Idle())
		}
		panic(msg)
	}
	s.verifyQuiesced()
	return s.collect(prog.Name)
}

// verifyQuiesced asserts the model invariant that a completed run left
// no miss-merge entry or pooled datapath record live on any socket: a
// leak here means a load completion was lost or a pooled continuation
// was dropped (it would previously have been an unreachable closure;
// with the pooled datapath it is detectable, so every run checks).
func (s *System) verifyQuiesced() {
	for i, sock := range s.sockets {
		if l1, l2, rm := sock.DebugPending(); l1+l2+rm != 0 {
			panic(fmt.Sprintf("core: socket %d finished with pending MSHR entries: l1=%d l2=%d rm=%d", i, l1, l2, rm))
		}
		// Each counter is checked individually: a double-release in one
		// pool (-1) must not cancel a leak in another (+1).
		if txs, reqs, waiters, homes := sock.DebugPoolsInUse(); txs != 0 || reqs != 0 || waiters != 0 || homes != 0 {
			panic(fmt.Sprintf("core: socket %d leaked pooled datapath records: txs=%d reqs=%d waiters=%d homes=%d",
				i, txs, reqs, waiters, homes))
		}
	}
	if s.rtxUsed != 0 {
		panic(fmt.Sprintf("core: %d remote round trips still in flight after the run", s.rtxUsed))
	}
}

func (s *System) startPolicies() {
	if s.fabric != nil && s.cfg.LinkMode == arch.LinkDynamic {
		// One balancer per physical link: in the synthesized crossbar
		// that is one per socket, in an explicit topology it includes
		// switch-to-switch trunks.
		for i := 0; i < s.fabric.NumLinks(); i++ {
			b := xlink.NewBalancer(s.fabric.LinkAt(i), s.cfg.LinkSampleTime)
			b.Start(s.eng)
			s.balancers = append(s.balancers, b)
		}
	}
	if s.cfg.CacheMode == arch.CacheNUMAAware && s.cfg.Sockets > 1 {
		for _, sock := range s.sockets {
			p := gpu.NewPartitionController(sock, s.cfg.CacheSampleTime)
			p.Start(s.eng)
			s.partitions = append(s.partitions, p)
		}
	}
	if s.obsc != nil {
		s.obsc.Start()
	}
}

func (s *System) stopPolicies() {
	for _, b := range s.balancers {
		b.Stop()
	}
	for _, p := range s.partitions {
		p.Stop()
	}
	if s.obsc != nil {
		s.obsc.Stop()
	}
}

// launchNext flushes the previous kernel's coherence state, waits for
// the drain, then launches the next kernel (or finalizes the run).
func (s *System) launchNext() {
	if s.tr != nil {
		s.tr.flushStart = s.eng.Now()
	}
	for _, sock := range s.sockets {
		if s.kernelIdx < len(s.kernels) {
			sock.FlushCaches()
		} else {
			sock.FlushAll()
		}
	}
	s.drain.WhenIdle(func() {
		now := s.eng.Now()
		if s.tr != nil {
			s.tr.drainSpan(s.cfg.Sockets, now)
		}
		if s.kernelIdx >= len(s.kernels) {
			s.endTime = now
			s.finished = true
			s.stopPolicies()
			return
		}
		k := s.kernels[s.kernelIdx]
		if s.tr != nil {
			s.tr.internKernel(s.kernelIdx, k.Name())
		}
		if s.fabric != nil {
			s.fabric.ResetDesign(now)
		}
		for _, b := range s.balancers {
			b.ResetState()
		}
		for _, sock := range s.sockets {
			sock.ResetForKernel(now)
		}
		s.kernelMarks = append(s.kernelMarks, now)
		s.kernelStart = now
		s.socketsLeft = len(s.sockets)
		for i, ctas := range s.partitionCTAs(k) {
			s.sockets[i].EnqueueKernel(ctas)
		}
	})
}

// partitionCTAs decomposes kernel k into per-socket CTA lists per the
// configured scheduling policy (Section 3). The lists and the CTAs'
// warp slices reuse the System's buffers: a kernel launches only after
// every socket dispatched all of the previous kernel's CTAs, and an SM
// copies a CTA's streams into its warp slots at launch.
func (s *System) partitionCTAs(k Kernel) [][]smcore.CTA {
	n := s.cfg.Sockets
	out := s.ctaLists
	for i := range out {
		out[i] = out[i][:0]
	}
	total := k.CTAs()
	warps := k.WarpsPerCTA()
	if cap(s.warpBuf) < total*warps {
		s.warpBuf = make([]smcore.InstrStream, total*warps)
	}
	buf := s.warpBuf[:total*warps]
	build := func(c int) smcore.CTA {
		cta := smcore.CTA{ID: c, Warps: buf[c*warps : (c+1)*warps : (c+1)*warps]}
		for w := 0; w < warps; w++ {
			cta.Warps[w] = k.Warp(c, w)
		}
		return cta
	}
	switch s.cfg.Sched {
	case arch.SchedFineGrain:
		for c := 0; c < total; c++ {
			sock := c % n
			out[sock] = append(out[sock], build(c))
		}
	default: // SchedBlock
		for sock := 0; sock < n; sock++ {
			lo := sock * total / n
			hi := (sock + 1) * total / n
			for c := lo; c < hi; c++ {
				out[sock] = append(out[sock], build(c))
			}
		}
	}
	return out
}

func (s *System) onSocketDone(id arch.SocketID) {
	if s.tr != nil {
		s.tr.kernelSpan(s.kernelIdx, id, s.kernelStart, s.eng.Now())
	}
	s.socketsLeft--
	if s.socketsLeft > 0 {
		return
	}
	// Kernel complete (all CTAs retired on all sockets).
	s.kernelTimes = append(s.kernelTimes, uint64(s.eng.Now()-s.kernelStart))
	s.kernelIdx++
	s.launchNext()
}

// ---------------------------------------------------------------------
// Chrome-trace hooks (Config.Obs.Trace).
// ---------------------------------------------------------------------

// obsTrace holds the interned trace-name tables so every runtime hook
// appends with a precomputed index: kernel waves per socket (pid =
// socket, tid = 0), flush/drain phases on the trailing "runtime" track
// (pid = Sockets), and remote transfers per (src, home) pair.
type obsTrace struct {
	t          *obs.Trace
	kernels    []int32 // per-kernel span names, interned at launch
	flushDrain int32
	read       []int32 // src*Sockets+home
	write      []int32
	bulk       []int32
	flushStart sim.Time
}

func newObsTrace(t *obs.Trace, sockets int) *obsTrace {
	o := &obsTrace{t: t, flushDrain: t.Intern("flush+drain")}
	o.read = make([]int32, sockets*sockets)
	o.write = make([]int32, sockets*sockets)
	o.bulk = make([]int32, sockets*sockets)
	for src := 0; src < sockets; src++ {
		for home := 0; home < sockets; home++ {
			i := src*sockets + home
			o.read[i] = t.Intern(fmt.Sprintf("read s%d->s%d", src, home))
			o.write[i] = t.Intern(fmt.Sprintf("write s%d->s%d", src, home))
			o.bulk[i] = t.Intern(fmt.Sprintf("flush s%d->s%d", src, home))
		}
	}
	return o
}

// internKernel names kernel idx's spans before its launch (allocates
// once per kernel, never per event).
func (o *obsTrace) internKernel(idx int, name string) {
	for len(o.kernels) <= idx {
		o.kernels = append(o.kernels, o.t.Intern(fmt.Sprintf("kernel %d %s", len(o.kernels), name)))
	}
}

// kernelSpan records socket id's execution of kernel idx.
func (o *obsTrace) kernelSpan(idx int, id arch.SocketID, start, end sim.Time) {
	o.t.Span(o.kernels[idx], int32(id), 0, start, end)
}

// drainSpan records the flush+drain phase that just completed on the
// runtime track.
func (o *obsTrace) drainSpan(sockets int, now sim.Time) {
	o.t.Span(o.flushDrain, int32(sockets), 0, o.flushStart, now)
}

func (s *System) String() string {
	return fmt.Sprintf("NUMA-GPU{%d sockets × %d SMs, %s, %s, %s, %s}",
		s.cfg.Sockets, s.cfg.SMsPerSocket, s.cfg.Sched, s.cfg.Placement, s.cfg.CacheMode, s.cfg.LinkMode)
}
