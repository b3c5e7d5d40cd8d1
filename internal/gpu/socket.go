package gpu

import (
	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/smcore"
	"repro/internal/stats"
	"repro/internal/vmm"
	"repro/internal/xlink"
)

// Remote is the socket's view of the rest of the system: routing of
// read requests and writes to the home socket of a line. The core
// package implements it on top of the switch fabric.
//
// Completions follow the datapath's pooling idiom: the caller hands in
// a handler bound on the shared engine plus an integer (a pool index),
// and the implementation runs done with arg when the transfer
// completes, so no closure is built per remote access.
type Remote interface {
	// RemoteRead fetches line l from its home socket; done runs when
	// the data response has arrived back at src.
	RemoteRead(src, home arch.SocketID, l arch.LineID, done sim.Handler, arg int)
	// RemoteWrite pushes a full-line write to the home socket; done
	// runs when the ack returns to src (a zero done runs nothing).
	RemoteWrite(src, home arch.SocketID, l arch.LineID, done sim.Handler, arg int)
	// RemoteWriteBulk pushes an aggregate of n dirty lines to the home
	// socket in one burst (coherence flush traffic); done runs when
	// the ack returns to src (a zero done runs nothing).
	RemoteWriteBulk(src, home arch.SocketID, n int, done sim.Handler, arg int)
}

// Socket is one GPU of the multi-socket system.
//
// Its memory datapath is an allocation-free transaction pipeline: a
// warp load allocates one pooled memTx, each L1 miss or store one
// pooled lineReq, and every stage (NoC hop, L2 lookup, DRAM fetch,
// response, L1 fill, remote round trip, home-side service) schedules
// the next through a handler bound once on the engine, carrying the
// pool index — no closure is created anywhere on the load or store
// path, local or remote. MSHR merging runs through open-addressed
// tables (internal/linetab) whose merged waiters are pooled chain nodes
// (see mshr.go).
type Socket struct {
	eng    *sim.Engine
	cfg    arch.Config
	id     arch.SocketID
	memMap *vmm.Memory
	remote Remote
	drain  *Drain
	port   *xlink.Port // nil on monolithic single-GPU systems

	SMs  []*smcore.SM
	l1s  []*mem.Cache
	xbar *noc.Crossbar
	l2   *mem.Cache
	dram *mem.DRAM

	// MSHR-style merge tables (open-addressed; see mshr.go). L1 waiter
	// chains hold memTx indices, L2/remote chains hold lineReq indices.
	l1Pending []mshrTable // per SM
	l2Pending mshrTable   // local lines fetching from DRAM
	rmPending mshrTable   // remote lines fetching over the link

	// Datapath record pools.
	txs   pool.Pool[memTx]
	reqs  pool.Pool[lineReq]
	chain pool.Pool[waiterNode]
	homes pool.Pool[homeReq]

	// Stage continuations, bound on the engine at construction; every
	// event on the datapath reuses them with a pool index as argument.
	txLineDoneEv sim.Handler
	l2ReqEv      sim.Handler
	l2RespEv     sim.Handler
	l1FillEv     sim.Handler
	l1DoneEv     sim.Handler
	dramRespEv   sim.Handler
	storeEv      sim.Handler
	homeReadEv   sim.Handler
	remoteFillEv sim.Handler // remote response, remote-caching modes
	remoteRespEv sim.Handler // remote response, memory-side mode
	drainDecEv   sim.Handler // store and writeback drains (arg unused)
	allDoneEv    sim.Handler // an empty kernel share completes

	// onLoadDone dispatches a completed warp load back to its SM; tests
	// and benchmarks may replace it to observe completions directly.
	onLoadDone func(sm, slot int)

	// memSide reports whether the L2 (or its local half) is a
	// memory-side cache that allocates for remote requesters.
	memSide bool

	// CTA dispatch.
	queue      []smcore.CTA
	queueHead  int
	ctasLeft   int
	onAllDone  func(arch.SocketID)
	dispatched stats.Counter

	// Outgoing remote read requests and arriving read responses in the
	// current cache-policy window; the Figure 7(d) algorithm estimates
	// incoming bandwidth from them (requests capture projected demand,
	// responses capture a standing backlog draining at line rate).
	remoteReqs stats.Meter
	remoteResp stats.Meter

	// flushPerHome is the reusable per-flush dirty-line tally, indexed
	// by home socket (replaces a map allocated per flush).
	flushPerHome []int

	// Statistics.
	LoadsLocal   stats.Counter
	LoadsRemote  stats.Counter
	StoresLocal  stats.Counter
	StoresRemote stats.Counter
	FlushedLines stats.Counter
}

// NewSocket builds socket id of a system described by cfg. remote may
// be nil only for single-socket systems. port is the socket's
// attachment point into the fabric (nil when Sockets == 1).
func NewSocket(eng *sim.Engine, cfg arch.Config, id arch.SocketID, memMap *vmm.Memory, remote Remote, port *xlink.Port, drain *Drain, onAllDone func(arch.SocketID)) *Socket {
	s := &Socket{
		eng:       eng,
		cfg:       cfg,
		id:        id,
		memMap:    memMap,
		remote:    remote,
		drain:     drain,
		port:      port,
		xbar:      noc.New(eng, cfg.NoCBandwidth, cfg.NoCLatency),
		l2:        mem.NewCache(cfg.L2Bytes, cfg.L2Assoc),
		dram:      mem.NewDRAM(eng, cfg.DRAMBandwidth, cfg.DRAMLatency),
		onAllDone: onAllDone,
		memSide:   cfg.CacheMode == arch.CacheMemSideLocal || cfg.CacheMode == arch.CacheStaticPartition,
	}
	s.onLoadDone = s.dispatchLoadDone

	s.l2Pending.Init(256)
	s.rmPending.Init(256)
	s.flushPerHome = make([]int, cfg.Sockets)

	s.txLineDoneEv = eng.Bind(s.txLineDone)
	s.l2ReqEv = eng.Bind(s.l2Req)
	s.l2RespEv = eng.Bind(s.l2Resp)
	s.l1FillEv = eng.Bind(s.l1Fill)
	s.l1DoneEv = eng.Bind(s.l1Done)
	s.dramRespEv = eng.Bind(s.dramResp)
	s.storeEv = eng.Bind(s.storeArrive)
	s.homeReadEv = eng.Bind(s.homeReadDone)
	s.remoteFillEv = eng.Bind(s.remoteFill)
	s.remoteRespEv = eng.Bind(s.remoteResponse)
	s.drainDecEv = eng.Bind(func(sim.Time, int) { drain.Dec() })
	s.allDoneEv = eng.Bind(func(sim.Time, int) { s.onAllDone(s.id) })

	for i := 0; i < cfg.SMsPerSocket; i++ {
		s.l1s = append(s.l1s, mem.NewCache(cfg.L1Bytes, cfg.L1Assoc))
		s.l1Pending = append(s.l1Pending, mshrTable{})
		s.l1Pending[i].Init(64)
		s.SMs = append(s.SMs, smcore.NewSM(eng, s, i, cfg.MaxWarpsPerSM, cfg.MaxCTAsPerSM, cfg.IssueWidth, s.onCTADone))
	}
	s.Reset()
	return s
}

// Reset returns the socket to the state NewSocket built: caches,
// DRAM, crossbar and SMs empty and idle, no pending miss, the record
// pools empty so their indices come out as in a fresh socket, no
// queued CTA, zero statistics, and the cache mode's way partitions.
// Every table and pool keeps its storage. The socket must be quiescent
// (a completed run leaves it so).
func (s *Socket) Reset() {
	s.xbar.Reset()
	s.l2.Reset()
	s.dram.Reset()
	for i, l1 := range s.l1s {
		l1.Reset()
		s.l1Pending[i].Clear()
		s.SMs[i].Reset()
	}
	s.l2Pending.Clear()
	s.rmPending.Clear()
	s.txs.Reset()
	s.reqs.Reset()
	s.chain.Reset()
	s.homes.Reset()
	s.queue, s.queueHead, s.ctasLeft = nil, 0, 0
	s.dispatched = stats.Counter{}
	s.remoteReqs, s.remoteResp = stats.Meter{}, stats.Meter{}
	s.LoadsLocal, s.LoadsRemote = stats.Counter{}, stats.Counter{}
	s.StoresLocal, s.StoresRemote = stats.Counter{}, stats.Counter{}
	s.FlushedLines = stats.Counter{}
	s.applyModePartitions()
}

// applyModePartitions sets the L1/L2 way split demanded by the cache
// mode: static 50/50 for mode (b)'s R$, dynamic-start 50/50 for mode
// (d), unpartitioned otherwise.
func (s *Socket) applyModePartitions() {
	switch s.cfg.CacheMode {
	case arch.CacheStaticPartition:
		half := s.cfg.L2Assoc / 2
		_ = s.l2.SetPartition(s.cfg.L2Assoc-half, half)
	case arch.CacheNUMAAware:
		half := s.cfg.L2Assoc / 2
		_ = s.l2.SetPartition(s.cfg.L2Assoc-half, half)
		for _, l1 := range s.l1s {
			h := l1.Assoc() / 2
			if h >= 1 && l1.Assoc()-h >= 1 {
				_ = l1.SetPartition(l1.Assoc()-h, h)
			}
		}
	default:
		s.l2.ClearPartition()
	}
}

// ID reports the socket's identity.
func (s *Socket) ID() arch.SocketID { return s.id }

// L2 exposes the shared cache (tests and the partition controller).
func (s *Socket) L2() *mem.Cache { return s.l2 }

// L1 exposes SM sm's private cache.
func (s *Socket) L1(sm int) *mem.Cache { return s.l1s[sm] }

// DRAM exposes the local memory.
func (s *Socket) DRAM() *mem.DRAM { return s.dram }

// Port exposes the socket's fabric attachment (nil for single socket).
func (s *Socket) Port() *xlink.Port { return s.port }

// Crossbar exposes the intra-GPU NoC.
func (s *Socket) Crossbar() *noc.Crossbar { return s.xbar }

// classOf resolves the NUMA class and home socket of line l for this
// socket, triggering first-touch placement when applicable. This is the
// single vmm lookup an access pays; the result rides in the pooled
// lineReq for the rest of the line's lifetime.
func (s *Socket) classOf(l arch.LineID) (mem.Class, arch.SocketID) {
	home := s.memMap.Owner(l, s.id)
	if home == s.id {
		return mem.ClassLocal, home
	}
	return mem.ClassRemote, home
}

// cachesRemoteInL2 reports whether this cache mode holds remote lines
// in the local L2 (modes b, c, d).
func (s *Socket) cachesRemoteInL2() bool {
	return s.cfg.CacheMode != arch.CacheMemSideLocal
}

// l2IsCoherent reports whether (part of) the L2 participates in the
// SW coherence protocol and must be invalidated at kernel boundaries.
func (s *Socket) l2IsCoherent() bool {
	return s.cfg.CacheMode != arch.CacheMemSideLocal
}

// ---------------------------------------------------------------------
// smcore.MemPort implementation: the SM-facing side.
//
// Stage graph for a load line (each arrow is one bound handler
// carrying a pool index; times are identical to the closure-based
// datapath this replaced):
//
//	loadLine ──L1 hit──────────────────────────────▶ txLineDone
//	    │ miss (lineReq)
//	    ├─merge──▶ l1Pending chain  (drained by l1Done)
//	    └─xbar──▶ l2Req ──┬─L2 hit─────▶ l2Resp ──xbar──▶ l1Fill ──▶ l1Done
//	                      ├─merge─────▶ l2/rmPending chain
//	                      ├─DRAM──────▶ dramResp ─▶ l2Resp ─▶ …
//	                      └─remote────▶ remoteResp ─▶ l2Resp ─▶ …
// ---------------------------------------------------------------------

// dispatchLoadDone hands a completed warp load back to its SM.
func (s *Socket) dispatchLoadDone(sm, slot int) { s.SMs[sm].LoadDone(slot) }

// Load issues a coalesced warp load from SM sm for the warp in slot;
// the SM's LoadDone(slot) fires once every line has been serviced.
func (s *Socket) Load(sm int, lines []arch.LineID, slot int) {
	if len(lines) == 0 {
		// No lines: complete after the 1-cycle issue turnaround.
		tx := s.txs.Put(memTx{sm: int32(sm), slot: int32(slot), left: 1})
		s.eng.ScheduleArg(1, s.txLineDoneEv, tx)
		return
	}
	tx := s.txs.Put(memTx{sm: int32(sm), slot: int32(slot), left: int32(len(lines))})
	for _, l := range lines {
		s.loadLine(sm, l, tx)
	}
}

func (s *Socket) loadLine(sm int, l arch.LineID, tx int) {
	cl, home := s.classOf(l)
	if cl == mem.ClassLocal {
		s.LoadsLocal.Inc()
	} else {
		s.LoadsRemote.Inc()
	}
	l1 := s.l1s[sm]
	if l1.Lookup(l, cl) {
		s.eng.ScheduleArg(sim.Time(s.cfg.L1Latency), s.txLineDoneEv, tx)
		return
	}
	// L1 miss: merge with an outstanding miss to the same line.
	if s.l1Pending[sm].merge(l, int32(tx), &s.chain) {
		return
	}
	req := s.reqs.Put(lineReq{line: l, home: home, cl: cl, sm: int32(sm), tx: int32(tx)})
	// Request crosses the NoC to the L2 complex.
	s.xbar.SendArg(s.cfg.RequestHeader, s.l2ReqEv, req)
}

// txLineDone retires one line of warp-load transaction tx; when it was
// the last, the SM is notified and the transaction freed.
func (s *Socket) txLineDone(_ sim.Time, tx int) {
	t := s.txs.At(tx)
	t.left--
	if t.left > 0 {
		return
	}
	sm, slot := int(t.sm), int(t.slot)
	s.txs.Free(tx)
	s.onLoadDone(sm, slot)
}

// l2Req services a read request arriving at the L2 complex.
func (s *Socket) l2Req(_ sim.Time, req int) {
	if s.reqs.At(req).cl == mem.ClassLocal {
		s.localL2Read(req)
	} else {
		s.remoteRead(req)
	}
}

// l2Resp pays the L2 access latency and ships the line back over the
// NoC to the requesting SM.
func (s *Socket) l2Resp(_ sim.Time, req int) {
	s.xbar.SendArg(arch.LineSize, s.l1FillEv, req)
}

// l1Fill installs the returned line in the issuing SM's L1 and pays the
// L1 fill latency before completion.
func (s *Socket) l1Fill(_ sim.Time, req int) {
	r := s.reqs.At(req)
	s.fillL1(int(r.sm), r.line, r.cl)
	s.eng.ScheduleArg(sim.Time(s.cfg.L1Latency), s.l1DoneEv, req)
}

// l1Done completes the primary transaction and every load that merged
// on the line at the L1 level, in merge order.
func (s *Socket) l1Done(now sim.Time, req int) {
	r := *s.reqs.At(req) // copied: released before the callbacks run
	head := s.l1Pending[r.sm].complete(r.line)
	s.reqs.Free(req)
	s.txLineDone(now, int(r.tx))
	for n := head; n != nilIdx; {
		node := *s.chain.At(int(n))
		s.chain.Free(int(n))
		s.txLineDone(now, int(node.val))
		n = node.next
	}
}

// fillL1 inserts a returned line into the SM's L1. Write-through L1s
// never hold dirty data, so victims vanish silently.
func (s *Socket) fillL1(sm int, l arch.LineID, cl mem.Class) {
	s.l1s[sm].Fill(l, cl, false)
}

// localL2Read services a local-address read at the L2: hit → respond;
// miss → DRAM fetch with MSHR merging, fill L2, respond.
func (s *Socket) localL2Read(req int) {
	r := s.reqs.At(req)
	if s.l2.Lookup(r.line, mem.ClassLocal) {
		s.eng.ScheduleArg(sim.Time(s.cfg.L2Latency), s.l2RespEv, req)
		return
	}
	if s.l2Pending.merge(r.line, int32(req), &s.chain) {
		return
	}
	s.dram.ReadArg(arch.LineSize, s.dramRespEv, req)
}

// dramResp fills the fetched line into the L2 and responds to the
// primary requester and every SM-level request that merged on it.
func (s *Socket) dramResp(_ sim.Time, req int) {
	r := s.reqs.At(req)
	s.insertL2(r.line, mem.ClassLocal, false)
	head := s.l2Pending.complete(r.line)
	s.eng.ScheduleArg(sim.Time(s.cfg.L2Latency), s.l2RespEv, req)
	for n := head; n != nilIdx; {
		node := *s.chain.At(int(n))
		s.chain.Free(int(n))
		s.eng.ScheduleArg(sim.Time(s.cfg.L2Latency), s.l2RespEv, int(node.val))
		n = node.next
	}
}

// remoteRead services a remote-address read: in modes that cache remote
// data the local L2 is consulted first and fills on return; in the
// memory-side mode every request crosses the link.
func (s *Socket) remoteRead(req int) {
	r := s.reqs.At(req)
	if s.cachesRemoteInL2() {
		if s.l2.Lookup(r.line, mem.ClassRemote) {
			s.eng.ScheduleArg(sim.Time(s.cfg.L2Latency), s.l2RespEv, req)
			return
		}
		if s.rmPending.merge(r.line, int32(req), &s.chain) {
			return
		}
		s.countRemoteRead()
		s.remote.RemoteRead(s.id, r.home, r.line, s.remoteFillEv, req)
		return
	}
	// Mode (a): bypass the local L2, no merging structure exists at the
	// link endpoint, every L1 miss pays the full remote round trip.
	s.countRemoteRead()
	s.remote.RemoteRead(s.id, r.home, r.line, s.remoteRespEv, req)
}

// remoteResponse ships a remote data response straight to the issuing
// SM in the memory-side mode, which keeps no remote lines in the L2.
func (s *Socket) remoteResponse(_ sim.Time, req int) {
	s.countRemoteResponse()
	s.xbar.SendArg(arch.LineSize, s.l1FillEv, req)
}

// remoteFill handles a remote data response in the cached-remote modes:
// fill the L2, respond to the primary and to every merged request. Every
// responder — primary and merged waiters alike — pays the L2 access
// latency before the line crosses the NoC, exactly as on the local DRAM
// path (dramResp): the data is served out of the just-filled L2 either
// way. (Merged waiters used to skip the charge, a timing asymmetry
// inherited from the closure-based datapath.)
func (s *Socket) remoteFill(_ sim.Time, req int) {
	r := s.reqs.At(req)
	s.countRemoteResponse()
	s.insertL2(r.line, mem.ClassRemote, false)
	head := s.rmPending.complete(r.line)
	s.eng.ScheduleArg(sim.Time(s.cfg.L2Latency), s.l2RespEv, req)
	for n := head; n != nilIdx; {
		node := *s.chain.At(int(n))
		s.chain.Free(int(n))
		s.eng.ScheduleArg(sim.Time(s.cfg.L2Latency), s.l2RespEv, int(node.val))
		n = node.next
	}
}

func (s *Socket) countRemoteRead() {
	s.remoteReqs.Add(uint64(arch.LineSize + s.cfg.ResponseHeader))
}

func (s *Socket) countRemoteResponse() {
	s.remoteResp.Add(uint64(arch.LineSize + s.cfg.ResponseHeader))
}

// insertL2 fills a line into the shared L2 handling victim writebacks:
// dirty local victims drain to DRAM, dirty remote victims cross the
// link to their home socket.
func (s *Socket) insertL2(l arch.LineID, cl mem.Class, dirty bool) {
	v, evicted := s.l2.Fill(l, cl, dirty)
	if !evicted || !v.Dirty {
		return
	}
	s.writebackVictim(v)
}

func (s *Socket) writebackVictim(v mem.Victim) {
	if v.Class == mem.ClassLocal {
		s.drain.Inc()
		s.dram.WriteArg(arch.LineSize, s.drainDecEv, 0)
		return
	}
	home, ok := s.memMap.Peek(v.Line)
	if !ok || home == s.id {
		// The page moved under us or the line is local after all;
		// treat as a local writeback.
		s.drain.Inc()
		s.dram.WriteArg(arch.LineSize, s.drainDecEv, 0)
		return
	}
	s.drain.Inc()
	s.remote.RemoteWrite(s.id, home, v.Line, s.drainDecEv, 0)
}

// Store retires a coalesced warp store from SM sm. Stores never block
// the warp; their drain is tracked for kernel-boundary semantics.
func (s *Socket) Store(sm int, lines []arch.LineID) {
	for _, l := range lines {
		s.storeLine(sm, l)
	}
}

func (s *Socket) storeLine(sm int, l arch.LineID) {
	cl, home := s.classOf(l)
	if cl == mem.ClassLocal {
		s.StoresLocal.Inc()
	} else {
		s.StoresRemote.Inc()
	}
	// Write-through, write-no-allocate L1: update on hit (stays clean,
	// the data also goes below), no fill on miss.
	l1 := s.l1s[sm]
	if l1.Peek(l) {
		l1.Fill(l, cl, false)
	}
	s.drain.Inc()
	st := s.reqs.Put(lineReq{line: l, home: home, cl: cl, sm: int32(sm), tx: nilIdx})
	s.xbar.SendArg(arch.LineSize+s.cfg.RequestHeader, s.storeEv, st)
}

// storeArrive retires a store at the L2 complex.
func (s *Socket) storeArrive(_ sim.Time, st int) {
	r := *s.reqs.At(st) // copied: released before downstream calls
	s.reqs.Free(st)
	if r.cl == mem.ClassLocal {
		// Write-allocate into the write-back L2 (coalesced warp
		// stores cover full lines, so no fetch-on-write).
		s.insertL2(r.line, mem.ClassLocal, true)
		s.drain.Dec()
		return
	}
	if s.cachesRemoteInL2() {
		if s.cfg.L2WriteThrough {
			// §5.2 sensitivity: line stays clean locally, data
			// crosses the link immediately.
			s.insertL2(r.line, mem.ClassRemote, false)
			s.remote.RemoteWrite(s.id, r.home, r.line, s.drainDecEv, 0)
			return
		}
		s.insertL2(r.line, mem.ClassRemote, true)
		s.drain.Dec()
		return
	}
	// Mode (a): remote writes cross the link immediately.
	s.remote.RemoteWrite(s.id, r.home, r.line, s.drainDecEv, 0)
}

// ---------------------------------------------------------------------
// Home-side servicing of requests arriving from other sockets.
// ---------------------------------------------------------------------

// HomeRead services a read request that arrived from another socket for
// a line homed here; handler done runs with arg when the data is ready
// to ship back. Memory-side L2 portions (modes a and b) cache the access;
// GPU-side L2 organizations serve hits but do not allocate for remote
// requesters.
func (s *Socket) HomeRead(l arch.LineID, done sim.Handler, arg int) {
	if s.l2.Lookup(l, mem.ClassLocal) {
		s.eng.ScheduleArg(sim.Time(s.cfg.L2Latency), done, arg)
		return
	}
	if !s.memSide {
		s.dram.ReadArg(arch.LineSize, done, arg)
		return
	}
	h := s.homes.Put(homeReq{line: l, done: done, arg: arg})
	s.dram.ReadArg(arch.LineSize, s.homeReadEv, h)
}

// homeReadDone caches a fetched line in the memory-side L2 and responds.
func (s *Socket) homeReadDone(now sim.Time, idx int) {
	h := *s.homes.At(idx) // copied: released before the callback runs
	s.homes.Free(idx)
	s.insertL2(h.line, mem.ClassLocal, false)
	s.eng.Call(h.done, h.arg)
}

// HomeWrite applies a full-line write arriving from another socket;
// handler done runs with arg when it is safe to ack.
func (s *Socket) HomeWrite(l arch.LineID, done sim.Handler, arg int) {
	if s.memSide {
		s.insertL2(l, mem.ClassLocal, true)
		s.eng.ScheduleArg(sim.Time(s.cfg.L2Latency), done, arg)
		return
	}
	if s.l2.MarkDirty(l) {
		s.eng.ScheduleArg(sim.Time(s.cfg.L2Latency), done, arg)
		return
	}
	s.dram.WriteArg(arch.LineSize, done, arg)
}

// HomeWriteBulk drains an aggregate flush burst of n lines into DRAM;
// handler done runs with arg when it has drained.
func (s *Socket) HomeWriteBulk(n int, done sim.Handler, arg int) {
	s.dram.WriteArg(n*arch.LineSize, done, arg)
}

// ---------------------------------------------------------------------
// CTA dispatch.
// ---------------------------------------------------------------------

// EnqueueKernel queues the socket's share of a kernel's CTAs and begins
// dispatching them to SMs. An empty share completes immediately.
func (s *Socket) EnqueueKernel(ctas []smcore.CTA) {
	s.queue = ctas
	s.queueHead = 0
	s.ctasLeft = len(ctas)
	if s.ctasLeft == 0 {
		// No work for this socket in this kernel.
		s.eng.ScheduleArg(1, s.allDoneEv, 0)
		return
	}
	for _, sm := range s.SMs {
		s.fillSM(sm)
	}
}

func (s *Socket) fillSM(sm *smcore.SM) {
	for s.queueHead < len(s.queue) && sm.CanAccept(len(s.queue[s.queueHead].Warps)) {
		sm.Launch(s.queue[s.queueHead])
		s.queueHead++
		s.dispatched.Inc()
	}
}

func (s *Socket) onCTADone(smID, ctaID int) {
	s.ctasLeft--
	s.fillSM(s.SMs[smID])
	if s.ctasLeft == 0 {
		s.queue = nil
		s.onAllDone(s.id)
	}
}

// ---------------------------------------------------------------------
// Coherence flush at kernel boundaries (Section 5).
// ---------------------------------------------------------------------

// FlushCaches performs the software coherence actions of a kernel
// boundary: bulk-invalidate every L1, and — when the L2 participates in
// coherence — invalidate its coherent portion, draining dirty lines to
// their home memories. Dirty flush traffic is aggregated per
// destination into bulk bursts. The caller waits on the shared Drain.
func (s *Socket) FlushCaches() {
	for _, l1 := range s.l1s {
		l1.InvalidateAll(nil) // write-through: never dirty
	}
	if !s.l2IsCoherent() || s.cfg.NoL2Invalidate {
		return
	}
	var keep func(mem.Class) bool
	if s.cfg.CacheMode == arch.CacheStaticPartition {
		// Only the R$ half is GPU-side coherent; the memory-side half
		// survives kernel boundaries.
		keep = func(cl mem.Class) bool { return cl == mem.ClassLocal }
	}
	dirty := s.l2.InvalidateAll(keep)
	s.flushDirty(dirty)
}

// FlushAll force-invalidates everything including memory-side contents;
// used at end of application so every configuration pays its residual
// writeback debt.
func (s *Socket) FlushAll() {
	for _, l1 := range s.l1s {
		l1.InvalidateAll(nil)
	}
	dirty := s.l2.InvalidateAll(nil)
	s.flushDirty(dirty)
}

func (s *Socket) flushDirty(dirty []mem.Victim) {
	if len(dirty) == 0 {
		return
	}
	s.FlushedLines.Advance(uint64(len(dirty)))
	localLines := 0
	perHome := s.flushPerHome
	for i := range perHome {
		perHome[i] = 0
	}
	for _, v := range dirty {
		if v.Class == mem.ClassLocal {
			localLines++
			continue
		}
		home, ok := s.memMap.Peek(v.Line)
		if !ok || home == s.id {
			localLines++
			continue
		}
		perHome[home]++
	}
	if localLines > 0 {
		s.drain.Inc()
		s.dram.WriteArg(localLines*arch.LineSize, s.drainDecEv, 0)
	}
	// Flush bursts must leave in socket order (which indexing perHome
	// by socket gives for free): ranging over the map this slice
	// replaced made the schedule — and through it the whole simulation
	// — vary from process to process on ≥4-socket systems (caught by
	// the golden-master tier as a 3-cycle flicker in fig11).
	for home := arch.SocketID(0); int(home) < s.cfg.Sockets; home++ {
		if n := perHome[home]; n > 0 {
			s.drain.Inc()
			s.remote.RemoteWriteBulk(s.id, home, n, s.drainDecEv, 0)
		}
	}
}

// ResetForKernel re-arms per-kernel state: way partitions return to
// their mode defaults (Step 0 of the Figure 7(d) algorithm) and the
// policy sampling windows reopen.
func (s *Socket) ResetForKernel(now sim.Time) {
	s.applyModePartitions()
	s.dram.ResetWindow(now)
	s.remoteReqs.Reset(now)
	s.remoteResp.Reset(now)
}

// RemoteReqWindow exposes the outgoing-read-request meter to the
// partition controller.
func (s *Socket) RemoteReqWindow() *stats.Meter { return &s.remoteReqs }

// RemoteRespWindow exposes the arriving-read-response meter.
func (s *Socket) RemoteRespWindow() *stats.Meter { return &s.remoteResp }

// Idle reports whether the socket has no queued or resident work.
func (s *Socket) Idle() bool {
	if s.ctasLeft > 0 {
		return false
	}
	for _, sm := range s.SMs {
		if !sm.Idle() {
			return false
		}
	}
	return true
}

// DebugPending reports outstanding miss-merge entries: summed L1
// pending lines, local L2 pending, remote pending. Diagnostic only.
func (s *Socket) DebugPending() (l1, l2, rm int) {
	for i := range s.l1Pending {
		l1 += s.l1Pending[i].Len()
	}
	return l1, s.l2Pending.Len(), s.rmPending.Len()
}

// DebugPoolsInUse reports live pooled datapath records: warp-load
// transactions, line requests, waiter-chain nodes and home-side reads.
// All four must be zero on a quiescent socket; anything else is a
// leaked continuation (core.System.Run panics on it after every run).
func (s *Socket) DebugPoolsInUse() (txs, reqs, waiters, homes int) {
	return s.txs.Live(), s.reqs.Live(), s.chain.Live(), s.homes.Live()
}

// DebugCTAs reports queued-but-undispatched and resident CTA counts.
func (s *Socket) DebugCTAs() (queued, resident int) {
	if s.queueHead < len(s.queue) {
		queued = len(s.queue) - s.queueHead
	}
	for _, sm := range s.SMs {
		resident += sm.ResidentCTAs()
	}
	return
}
