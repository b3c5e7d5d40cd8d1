// Package core is the paper's primary contribution assembled into a
// single programmer-transparent NUMA GPU: a multi-socket system built
// from gpu.Sockets joined by an xlink.Fabric, driven by a locality-
// optimized runtime that decomposes each kernel into per-socket CTA
// blocks, performs software coherence at kernel boundaries, and runs
// the two adaptive mechanisms of Milic et al. (MICRO 2017): the dynamic
// asymmetric link balancer and the NUMA-aware cache partitioner.
package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/smcore"
	"repro/internal/stats"
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
	eng     *sim.Engine         // the runtime/fabric engine: home shard when sharded, the only engine otherwise
	pe      *sim.ParallelEngine // sharded execution (Config.EngineShards > 1); nil for serial runs
	cfg     arch.Config
	mem     *vmm.Memory
	fabric  *xlink.Fabric // nil when Sockets == 1
	sockets []*gpu.Socket
	drain   *gpu.Drain

	balancers   []*xlink.Balancer
	partitions  []*gpu.PartitionController
	profiler    *linkProfiler
	obsc        *obs.Collector // nil unless cfg.Obs requests observation
	tr          *obsTrace      // nil unless cfg.Obs.Trace
	rtx         []remoteTx     // remote round-trip pool (see remoteTx)
	rtxFree     int32          // free-list head, -1 when empty
	rtxUsed     int
	readHomeEv  sim.ArgEvent // remote protocol stages, bound once
	readRespEv  sim.ArgEvent
	writeHomeEv sim.ArgEvent
	bulkHomeEv  sim.ArgEvent
	ackEv       sim.ArgEvent
	arriveEv    sim.ArgEvent
	kernels     []Kernel
	kernelIdx   int
	socketsLeft int
	kernelStart sim.Time
	kernelMarks []sim.Time
	kernelTimes []uint64
	endTime     sim.Time
	finished    bool
}

// NewSystem builds a NUMA GPU from cfg.
func NewSystem(cfg arch.Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:     cfg,
		mem:     vmm.NewWeighted(cfg.Sockets, cfg.Placement, socketWeights(cfg)),
		drain:   &gpu.Drain{},
		rtxFree: -1,
	}
	s.readHomeEv = s.readHome
	s.readRespEv = s.readResp
	s.writeHomeEv = s.writeHome
	s.bulkHomeEv = s.bulkHome
	s.ackEv = s.ack
	s.arriveEv = s.arrive
	// Sharded execution: min(EngineShards, Sockets) socket shards plus a
	// fabric/home shard, run in lockstep so the global (time, seq)
	// schedule — and every result — is byte-identical to the serial
	// engine. The model's sockets are synchronously coupled outside the
	// event queue (first-touch placement, home-side service, the drain
	// counter), so free-running windows would need state partitioning
	// first; lockstep still gives shard-assigned queues, per-shard event
	// accounting, and runtime validation of the lookahead bound.
	shards := cfg.EngineShards
	if shards > cfg.Sockets {
		shards = cfg.Sockets
	}
	if shards > 1 {
		// Lookahead starts at the floor and is raised to the derived
		// bound once the fabric exists.
		s.pe = sim.NewLockstep(shards+1, 1)
		s.eng = s.pe.Shard(shards)
	} else {
		s.eng = sim.New()
	}
	if cfg.Sockets > 1 {
		s.fabric = xlink.NewFabric(s.eng, cfg)
	}
	if s.pe != nil && s.fabric != nil {
		if la := s.fabric.MinPathCost(); la > 1 {
			s.pe.SetLookahead(la)
		}
		s.fabric.EnableSharding(s.pe, func(id arch.SocketID) int { return int(id) % shards })
	}
	if cfg.Obs.Enabled() {
		s.obsc = obs.New(cfg.Obs)
	}
	for i := 0; i < cfg.Sockets; i++ {
		var port *xlink.Port
		if s.fabric != nil {
			port = s.fabric.Port(arch.SocketID(i))
		}
		eng := s.eng
		if s.pe != nil {
			eng = s.pe.Shard(i % shards)
		}
		sock := gpu.NewSocket(eng, socketConfig(cfg, i), arch.SocketID(i), s.mem, s, port, s.drain, s.onSocketDone)
		s.sockets = append(s.sockets, sock)
		if s.obsc != nil {
			s.obsc.AddSocket(eng, socketConfig(cfg, i), sock)
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

// Engine exposes the simulation engine (examples, tests). When the
// system is sharded this is the fabric/home shard; drive execution
// through Run, not the shard engines.
func (s *System) Engine() *sim.Engine { return s.eng }

// Parallel exposes the sharded engine, nil for serial runs — tests use
// it for event-count parity and cross-shard delivery accounting.
func (s *System) Parallel() *sim.ParallelEngine { return s.pe }

// Config reports the system configuration.
func (s *System) Config() arch.Config { return s.cfg }

// Memory exposes the unified virtual memory map.
func (s *System) Memory() *vmm.Memory { return s.mem }

// Socket exposes socket i.
func (s *System) Socket(i int) *gpu.Socket { return s.sockets[i] }

// Fabric exposes the interconnect (nil for single-socket systems).
func (s *System) Fabric() *xlink.Fabric { return s.fabric }

// ---------------------------------------------------------------------
// gpu.Remote implementation: traffic between sockets.
// ---------------------------------------------------------------------

// remoteTx is one in-flight remote round trip: a line read, a line
// write or a bulk flush burst from socket src to home and back. Records
// live in System.rtx on an index-linked free list, and every protocol
// stage schedules the next through a pre-bound sim.ArgEvent carrying
// the record index — the gpu datapath's pooling idiom, so a remote
// access allocates nothing. A fabric delivery calls its stage directly,
// without an event of its own, which keeps the protocol's event
// schedule, and with it every result, fixed.
type remoteTx struct {
	src, home arch.SocketID
	line      arch.LineID
	lines     int          // bulk flush burst size
	done      sim.ArgEvent // the requester's continuation; may be nil
	arg       int
	t0        sim.Time // trace span start (Config.Obs.Trace only)
	name      int32    // interned trace span name
	next      int32    // free-list link
}

// getTx takes a pooled round-trip record for a transfer src → home.
func (s *System) getTx(src, home arch.SocketID, done sim.ArgEvent, arg int) int {
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
func (s *System) RemoteRead(src, home arch.SocketID, l arch.LineID, done sim.ArgEvent, arg int) {
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
func (s *System) RemoteWrite(src, home arch.SocketID, l arch.LineID, done sim.ArgEvent, arg int) {
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
func (s *System) RemoteWriteBulk(src, home arch.SocketID, n int, done sim.ArgEvent, arg int) {
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
	if t.done != nil {
		t.done(now, t.arg)
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

// Run executes prog to completion and returns its measurements. A
// System is single-use: build a fresh one per run.
func (s *System) Run(prog Program) Result {
	if s.finished || s.kernels != nil {
		panic("core: System is single-use; construct a new one per Run")
	}
	if prog.Setup != nil {
		prog.Setup(s.mem)
	}
	s.kernels = prog.Kernels
	s.startPolicies()
	s.launchNext()
	if s.pe != nil {
		s.pe.Run()
	} else {
		s.eng.Run()
	}
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
	if s.profiler != nil {
		s.profiler.start(s.eng)
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
	if s.profiler != nil {
		s.profiler.stop()
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
// configured scheduling policy (Section 3).
func (s *System) partitionCTAs(k Kernel) [][]smcore.CTA {
	n := s.cfg.Sockets
	out := make([][]smcore.CTA, n)
	total := k.CTAs()
	warps := k.WarpsPerCTA()
	build := func(c int) smcore.CTA {
		cta := smcore.CTA{ID: c, Warps: make([]smcore.InstrStream, warps)}
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
// Link profiling (Figure 5).
// ---------------------------------------------------------------------

// LinkProfile is the recorded utilization time series of one physical
// link of the fabric, normalized to the design per-direction capacity.
// In the synthesized crossbar, link i is socket i's port link; explicit
// topologies may have more links than sockets (Label names each one).
type LinkProfile struct {
	Link    int
	Label   string
	Egress  stats.Series
	Ingress stats.Series
}

type linkProfiler struct {
	sys    *System
	window sim.Time
	ticker *sim.Ticker
	prof   []LinkProfile
}

// EnableLinkProfile records per-window utilization for every physical
// link (call before Run). window is the sampling period in cycles.
func (s *System) EnableLinkProfile(window int) {
	if window < 1 {
		window = 1
	}
	p := &linkProfiler{sys: s, window: sim.Time(window)}
	if s.fabric != nil {
		for i := 0; i < s.fabric.NumLinks(); i++ {
			p.prof = append(p.prof, LinkProfile{Link: i, Label: s.fabric.LinkAt(i).Name()})
		}
	}
	s.profiler = p
}

func (p *linkProfiler) start(eng *sim.Engine) {
	if p.sys.fabric == nil {
		return
	}
	for i := range p.prof {
		p.sys.fabric.LinkAt(i).ResetProfileWindow(eng.Now())
	}
	p.ticker = sim.NewTicker(eng, p.window, func(now sim.Time) {
		for i := range p.prof {
			l := p.sys.fabric.LinkAt(i)
			p.prof[i].Egress.Record(now, l.ProfileUtilization(xlink.Egress, now))
			p.prof[i].Ingress.Record(now, l.ProfileUtilization(xlink.Ingress, now))
			l.ResetProfileWindow(now)
		}
	})
	p.ticker.Start()
}

func (p *linkProfiler) stop() {
	if p.ticker != nil {
		p.ticker.Stop()
	}
}

// LinkProfiles returns the recorded profiles (after Run) along with the
// kernel launch times for Figure 5's vertical markers.
func (s *System) LinkProfiles() ([]LinkProfile, []sim.Time) {
	if s.profiler == nil {
		return nil, s.kernelMarks
	}
	return s.profiler.prof, s.kernelMarks
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
