package gpu

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/smcore"
	"repro/internal/vmm"
	"repro/internal/xlink"
)

// scriptStream replays a fixed instruction list for CTA dispatch tests.
type scriptStream struct {
	instrs []smcore.Instr
	pos    int
}

func (s *scriptStream) Next(in *smcore.Instr) bool {
	if s.pos >= len(s.instrs) {
		return false
	}
	*in = s.instrs[s.pos]
	s.pos++
	return true
}

// makeCTAs builds n compute-only CTAs with the given warps and
// instruction count each.
func makeCTAs(n, warps, instrs int) []smcore.CTA {
	var out []smcore.CTA
	for c := 0; c < n; c++ {
		cta := smcore.CTA{ID: c}
		for w := 0; w < warps; w++ {
			var list []smcore.Instr
			for i := 0; i < instrs; i++ {
				list = append(list, smcore.Instr{Comp: 2, Op: smcore.OpNone})
			}
			cta.Warps = append(cta.Warps, &scriptStream{instrs: list})
		}
		out = append(out, cta)
	}
	return out
}

// fakeRemote records remote traffic and services it with a fixed delay.
// It schedules the caller's bound continuation directly, so a
// remote access through it allocates nothing.
type fakeRemote struct {
	eng    *sim.Engine
	noop   sim.Handler // bound by newFakeRemote
	reads  int
	writes int
	bulk   int
}

func newFakeRemote(eng *sim.Engine) *fakeRemote {
	return &fakeRemote{eng: eng, noop: eng.Bind(func(sim.Time, int) {})}
}

func (r *fakeRemote) RemoteRead(src, home arch.SocketID, l arch.LineID, done sim.Handler, arg int) {
	r.reads++
	r.respond(done, arg)
}

func (r *fakeRemote) RemoteWrite(src, home arch.SocketID, l arch.LineID, done sim.Handler, arg int) {
	r.writes++
	r.respond(done, arg)
}

func (r *fakeRemote) RemoteWriteBulk(src, home arch.SocketID, n int, done sim.Handler, arg int) {
	r.bulk += n
	r.respond(done, arg)
}

// respond completes a transfer 300 cycles from now; a zero done still
// costs the response event.
func (r *fakeRemote) respond(done sim.Handler, arg int) {
	if done == 0 {
		done = r.noop
	}
	r.eng.ScheduleArg(300, done, arg)
}

type harness struct {
	eng    *sim.Engine
	cfg    arch.Config
	memMap *vmm.Memory
	remote *fakeRemote
	drain  *Drain
	sock   *Socket
	loads  int // completed warp loads (onLoadDone hook)
}

func newHarness(t *testing.T, mode arch.CacheMode) *harness {
	t.Helper()
	cfg := arch.TestConfig()
	cfg.CacheMode = mode
	eng := sim.New()
	memMap := vmm.New(cfg.Sockets, arch.PlaceFirstTouch)
	remote := newFakeRemote(eng)
	drain := &Drain{}
	link := xlink.NewLink(eng, cfg.LanesPerDir, cfg.LaneBandwidth, cfg.LinkLatency, cfg.LaneSwitchTime)
	sock := NewSocket(eng, cfg, 0, memMap, remote, xlink.PortOf(link), drain, func(arch.SocketID) {})
	h := &harness{eng: eng, cfg: cfg, memMap: memMap, remote: remote, drain: drain, sock: sock}
	sock.onLoadDone = func(sm, slot int) { h.loads++ }
	return h
}

// load issues a 1-warp coalesced load from SM sm; completions are
// counted in h.loads via the onLoadDone hook.
func (h *harness) load(sm int, lines ...arch.LineID) {
	h.sock.Load(sm, lines, 0)
}

// quiesced fails the test if any MSHR entry or pooled datapath record
// is still live — the invariant core.System.Run enforces after every
// experiment run.
func (h *harness) quiesced(t *testing.T) {
	t.Helper()
	if l1, l2, rm := h.sock.DebugPending(); l1+l2+rm != 0 {
		t.Fatalf("pending MSHR entries leaked: l1=%d l2=%d rm=%d", l1, l2, rm)
	}
	if txs, reqs, waiters, homes := h.sock.DebugPoolsInUse(); txs != 0 || reqs != 0 || waiters != 0 || homes != 0 {
		t.Fatalf("pooled records leaked: txs=%d reqs=%d waiters=%d homes=%d", txs, reqs, waiters, homes)
	}
}

// localLine returns a line homed on socket 0 (first touch by socket 0).
func (h *harness) localLine(i int) arch.LineID {
	l := arch.LineID(i * (arch.PageSize / arch.LineSize))
	h.memMap.Owner(l, 0)
	return l
}

// remoteLine returns a line homed on socket 1.
func (h *harness) remoteLine(i int) arch.LineID {
	l := arch.LineID((1000 + i) * (arch.PageSize / arch.LineSize))
	h.memMap.Owner(l, 1)
	return l
}

func TestLocalLoadMissAndHit(t *testing.T) {
	h := newHarness(t, arch.CacheMemSideLocal)
	l := h.localLine(1)
	h.load(0, l)
	h.eng.Run()
	if h.loads != 1 {
		t.Fatal("load must complete")
	}
	if h.sock.DRAM().Reads.Value() != 1 {
		t.Fatal("cold miss must reach DRAM")
	}
	// Second load: L1 hit, no new DRAM traffic.
	h.load(0, l)
	h.eng.Run()
	if h.loads != 2 || h.sock.DRAM().Reads.Value() != 1 {
		t.Fatalf("L1 hit path broken: done=%d dramReads=%d", h.loads, h.sock.DRAM().Reads.Value())
	}
	if h.sock.LoadsLocal.Value() != 2 || h.sock.LoadsRemote.Value() != 0 {
		t.Fatal("locality counters wrong")
	}
	h.quiesced(t)
}

func TestEmptyLoadCompletes(t *testing.T) {
	h := newHarness(t, arch.CacheMemSideLocal)
	h.load(0)
	h.eng.Run()
	if h.loads != 1 {
		t.Fatal("empty coalesced load must still complete")
	}
	h.quiesced(t)
}

func TestL1MissMergesAcrossWarps(t *testing.T) {
	h := newHarness(t, arch.CacheMemSideLocal)
	l := h.localLine(2)
	// Two concurrent loads to the same line from the same SM: one DRAM
	// fetch, two completions.
	h.load(0, l)
	h.load(0, l)
	h.eng.Run()
	if h.loads != 2 {
		t.Fatalf("completions %d, want 2", h.loads)
	}
	if h.sock.DRAM().Reads.Value() != 1 {
		t.Fatalf("DRAM reads %d, want 1 (MSHR merge)", h.sock.DRAM().Reads.Value())
	}
	h.quiesced(t)
}

func TestLoadDuplicateLinesMergeWithinOneLoad(t *testing.T) {
	// A coalesced load may contain the same line more than once (warp
	// lanes hitting one line before coalescing dedups, or a degenerate
	// pattern). Every duplicate must be serviced — the transaction's
	// remaining-line count covers all of them — off a single fetch.
	h := newHarness(t, arch.CacheMemSideLocal)
	l := h.localLine(3)
	h.sock.Load(0, []arch.LineID{l, l, l}, 0)
	h.eng.Run()
	if h.loads != 1 {
		t.Fatalf("warp-load completions %d, want 1", h.loads)
	}
	if h.sock.DRAM().Reads.Value() != 1 {
		t.Fatalf("DRAM reads %d, want 1 (duplicates must merge)", h.sock.DRAM().Reads.Value())
	}
	h.quiesced(t)
}

func TestL2SharedAcrossSMs(t *testing.T) {
	h := newHarness(t, arch.CacheMemSideLocal)
	l := h.localLine(3)
	h.load(0, l)
	h.eng.Run()
	h.load(1, l)
	h.eng.Run()
	if h.loads != 2 {
		t.Fatal("loads must complete")
	}
	if h.sock.DRAM().Reads.Value() != 1 {
		t.Fatalf("second SM should hit in shared L2, DRAM reads %d", h.sock.DRAM().Reads.Value())
	}
	h.quiesced(t)
}

func TestL2PendingMergesAcrossSMs(t *testing.T) {
	// Concurrent misses to the same local line from different SMs merge
	// on l2Pending: one DRAM fetch services both SMs' L1 fills.
	h := newHarness(t, arch.CacheMemSideLocal)
	l := h.localLine(4)
	h.load(0, l)
	h.load(1, l)
	h.eng.Run()
	if h.loads != 2 {
		t.Fatalf("completions %d, want 2", h.loads)
	}
	if h.sock.DRAM().Reads.Value() != 1 {
		t.Fatalf("DRAM reads %d, want 1 (l2Pending merge)", h.sock.DRAM().Reads.Value())
	}
	// Both SMs must have been filled.
	if !h.sock.L1(0).Peek(l) || !h.sock.L1(1).Peek(l) {
		t.Fatal("merged waiter's L1 not filled")
	}
	h.quiesced(t)
}

func TestRemoteLoadModeA(t *testing.T) {
	h := newHarness(t, arch.CacheMemSideLocal)
	l := h.remoteLine(0)
	h.load(0, l)
	h.eng.Run()
	if h.remote.reads != 1 {
		t.Fatalf("remote reads %d, want 1", h.remote.reads)
	}
	// Memory-side mode: remote line is NOT in the local L2. A second
	// load from a different SM crosses the link again.
	h.load(1, l)
	h.eng.Run()
	if h.remote.reads != 2 {
		t.Fatalf("mode (a) must not cache remote in L2: remote reads %d, want 2", h.remote.reads)
	}
	// Same SM again: L1 holds it.
	h.load(1, l)
	h.eng.Run()
	if h.remote.reads != 2 {
		t.Fatal("L1 must cache remote data in every mode")
	}
	if h.loads != 3 {
		t.Fatalf("completions %d", h.loads)
	}
	h.quiesced(t)
}

func TestRemoteLoadCachedModes(t *testing.T) {
	for _, mode := range []arch.CacheMode{arch.CacheStaticPartition, arch.CacheSharedCoherent, arch.CacheNUMAAware} {
		h := newHarness(t, mode)
		l := h.remoteLine(1)
		h.load(0, l)
		h.eng.Run()
		// Different SM: the local L2 now holds the remote line.
		h.load(1, l)
		h.eng.Run()
		if h.remote.reads != 1 {
			t.Fatalf("%v: remote reads %d, want 1 (L2 caches remote)", mode, h.remote.reads)
		}
		if h.loads != 2 {
			t.Fatalf("%v: completions %d", mode, h.loads)
		}
		h.quiesced(t)
	}
}

func TestRemoteFetchMerge(t *testing.T) {
	h := newHarness(t, arch.CacheNUMAAware)
	l := h.remoteLine(2)
	h.load(0, l)
	h.load(1, l)
	h.eng.Run()
	if h.remote.reads != 1 {
		t.Fatalf("concurrent remote misses must merge: %d reads", h.remote.reads)
	}
	if h.loads != 2 {
		t.Fatalf("completions %d", h.loads)
	}
	// Both SMs' L1s must hold the line after the merged fill.
	if !h.sock.L1(0).Peek(l) || !h.sock.L1(1).Peek(l) {
		t.Fatal("rmPending merged waiter's L1 not filled")
	}
	h.quiesced(t)
}

func TestMergeStormQuiesces(t *testing.T) {
	// A many-way merge across both MSHR levels, repeated over several
	// lines while earlier fetches are still in flight, must drain to
	// zero pending entries and zero live pooled records. This is the
	// pooled-state leak detector for the refactored datapath.
	h := newHarness(t, arch.CacheNUMAAware)
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			local := h.localLine(10 + round*8 + i)
			remote := h.remoteLine(10 + round*8 + i)
			for sm := 0; sm < h.cfg.SMsPerSocket; sm++ {
				h.load(sm, local, local, remote)
				h.load(sm, remote)
			}
		}
	}
	h.eng.Run()
	want := 3 * 8 * h.cfg.SMsPerSocket * 2
	if h.loads != want {
		t.Fatalf("completions %d, want %d", h.loads, want)
	}
	h.quiesced(t)
}

func TestLocalStoreWriteBack(t *testing.T) {
	h := newHarness(t, arch.CacheMemSideLocal)
	l := h.localLine(4)
	h.sock.Store(0, []arch.LineID{l})
	h.eng.Run()
	if h.drain.Outstanding() != 0 {
		t.Fatal("store must drain")
	}
	// Write-back: the dirty line sits in L2, no DRAM write yet.
	if h.sock.DRAM().Writes.Value() != 0 {
		t.Fatal("write-back L2 must absorb the store")
	}
	if h.sock.StoresLocal.Value() != 1 {
		t.Fatal("store counter wrong")
	}
	h.quiesced(t)
}

func TestRemoteStoreModeA(t *testing.T) {
	h := newHarness(t, arch.CacheMemSideLocal)
	l := h.remoteLine(3)
	h.sock.Store(0, []arch.LineID{l})
	h.eng.Run()
	if h.remote.writes != 1 {
		t.Fatalf("mode (a) remote store must cross the link: writes %d", h.remote.writes)
	}
	if h.drain.Outstanding() != 0 {
		t.Fatal("store must drain after ack")
	}
	h.quiesced(t)
}

func TestRemoteStoreBufferedWriteBack(t *testing.T) {
	h := newHarness(t, arch.CacheNUMAAware)
	l := h.remoteLine(4)
	h.sock.Store(0, []arch.LineID{l})
	h.eng.Run()
	if h.remote.writes != 0 {
		t.Fatal("write-back mode must buffer the remote store in L2")
	}
	// The flush must push it home.
	h.sock.FlushCaches()
	h.eng.Run()
	if h.remote.bulk != 1 {
		t.Fatalf("flush must write the dirty remote line back: bulk %d", h.remote.bulk)
	}
	h.quiesced(t)
}

func TestRemoteStoreWriteThrough(t *testing.T) {
	cfg := arch.TestConfig()
	cfg.CacheMode = arch.CacheNUMAAware
	cfg.L2WriteThrough = true
	eng := sim.New()
	memMap := vmm.New(cfg.Sockets, arch.PlaceFirstTouch)
	remote := newFakeRemote(eng)
	drain := &Drain{}
	sock := NewSocket(eng, cfg, 0, memMap, remote, nil, drain, func(arch.SocketID) {})
	l := arch.LineID(5000 * (arch.PageSize / arch.LineSize))
	memMap.Owner(l, 1)
	sock.Store(0, []arch.LineID{l})
	eng.Run()
	if remote.writes != 1 {
		t.Fatalf("write-through must cross the link immediately: writes %d", remote.writes)
	}
}

func TestFlushSemanticsPerMode(t *testing.T) {
	cases := []struct {
		mode           arch.CacheMode
		wantL2Survives bool // local data survives the kernel-boundary flush
	}{
		{arch.CacheMemSideLocal, true},
		{arch.CacheStaticPartition, true}, // memory-side half keeps local
		{arch.CacheSharedCoherent, false},
		{arch.CacheNUMAAware, false},
	}
	for _, tc := range cases {
		h := newHarness(t, tc.mode)
		l := h.localLine(6)
		h.load(0, l)
		h.eng.Run()
		if h.loads != 1 {
			t.Fatalf("%v: load incomplete", tc.mode)
		}
		h.sock.FlushCaches()
		h.eng.Run()
		if got := h.sock.L2().Peek(l); got != tc.wantL2Survives {
			t.Errorf("%v: local line in L2 after flush = %v, want %v", tc.mode, got, tc.wantL2Survives)
		}
		if h.sock.L1(0).Peek(l) {
			t.Errorf("%v: L1 must always be invalidated at kernel boundaries", tc.mode)
		}
		h.quiesced(t)
	}
}

func TestNoL2InvalidateMode(t *testing.T) {
	cfg := arch.TestConfig()
	cfg.CacheMode = arch.CacheNUMAAware
	cfg.NoL2Invalidate = true
	eng := sim.New()
	memMap := vmm.New(cfg.Sockets, arch.PlaceFirstTouch)
	drain := &Drain{}
	sock := NewSocket(eng, cfg, 0, memMap, newFakeRemote(eng), nil, drain, func(arch.SocketID) {})
	done := 0
	sock.onLoadDone = func(sm, slot int) { done++ }
	l := arch.LineID(0)
	memMap.Owner(l, 0)
	sock.Load(0, []arch.LineID{l}, 0)
	eng.Run()
	if done != 1 {
		t.Fatal("load incomplete")
	}
	sock.FlushCaches()
	eng.Run()
	if !sock.L2().Peek(l) {
		t.Fatal("hypothetical no-invalidate L2 must keep its contents (Figure 9)")
	}
}

func TestCTADispatchQueue(t *testing.T) {
	h := newHarness(t, arch.CacheMemSideLocal)
	doneSockets := 0
	h.sock.onAllDone = func(arch.SocketID) { doneSockets++ }
	// More CTAs than fit at once.
	h.sock.EnqueueKernel(makeCTAs(40, 2, 3))
	h.eng.Run()
	if doneSockets != 1 {
		t.Fatalf("socket completion fired %d times, want 1", doneSockets)
	}
	if h.sock.dispatched.Value() != 40 {
		t.Fatalf("dispatched %d CTAs, want 40", h.sock.dispatched.Value())
	}
	if !h.sock.Idle() {
		t.Fatal("socket must end idle")
	}
}

func TestEmptyKernelCompletes(t *testing.T) {
	h := newHarness(t, arch.CacheMemSideLocal)
	fired := false
	h.sock.onAllDone = func(arch.SocketID) { fired = true }
	h.sock.EnqueueKernel(nil)
	h.eng.Run()
	if !fired {
		t.Fatal("empty kernel share must still complete")
	}
}

func TestDrainPanicsOnUnderflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected underflow panic")
		}
	}()
	(&Drain{}).Dec()
}

func TestDrainWhenIdle(t *testing.T) {
	d := &Drain{}
	ran := false
	d.WhenIdle(func() { ran = true })
	if !ran {
		t.Fatal("idle drain must run immediately")
	}
	d.Inc()
	ran = false
	d.WhenIdle(func() { ran = true })
	if ran {
		t.Fatal("busy drain must defer")
	}
	d.Dec()
	if !ran {
		t.Fatal("callback must fire at zero")
	}
}

func TestHomeReadServesAndCachesMemSide(t *testing.T) {
	h := newHarness(t, arch.CacheMemSideLocal)
	l := h.localLine(7)
	done := 0
	h.sock.HomeRead(l, h.eng.Bind(func(sim.Time, int) { done++ }), 0)
	h.eng.Run()
	if done != 1 || h.sock.DRAM().Reads.Value() != 1 {
		t.Fatal("home read must reach DRAM on cold miss")
	}
	// Memory-side L2 cached the remote-origin access: second read hits.
	h.sock.HomeRead(l, h.eng.Bind(func(sim.Time, int) { done++ }), 0)
	h.eng.Run()
	if done != 2 || h.sock.DRAM().Reads.Value() != 1 {
		t.Fatal("memory-side L2 must cache remote-origin reads")
	}
	h.quiesced(t)
}

func TestHomeReadDoesNotPolluteCoherentL2(t *testing.T) {
	h := newHarness(t, arch.CacheNUMAAware)
	l := h.localLine(8)
	done := 0
	h.sock.HomeRead(l, h.eng.Bind(func(sim.Time, int) { done++ }), 0)
	h.eng.Run()
	if h.sock.L2().Peek(l) {
		t.Fatal("GPU-side coherent L2 must not allocate for remote requesters")
	}
	// But it must serve hits when the line is already resident.
	h.load(0, l)
	h.eng.Run()
	reads := h.sock.DRAM().Reads.Value()
	h.sock.HomeRead(l, h.eng.Bind(func(sim.Time, int) { done++ }), 0)
	h.eng.Run()
	if h.sock.DRAM().Reads.Value() != reads {
		t.Fatal("home read must hit a resident L2 line")
	}
	if done != 2 || h.loads != 1 {
		t.Fatalf("completions %d/%d", done, h.loads)
	}
	h.quiesced(t)
}

func TestHomeWritePaths(t *testing.T) {
	// Memory-side: write-allocates dirty.
	h := newHarness(t, arch.CacheMemSideLocal)
	l := h.localLine(9)
	done := 0
	h.sock.HomeWrite(l, h.eng.Bind(func(sim.Time, int) { done++ }), 0)
	h.eng.Run()
	if done != 1 || !h.sock.L2().Peek(l) {
		t.Fatal("memory-side home write must allocate")
	}
	if h.sock.DRAM().Writes.Value() != 0 {
		t.Fatal("write-back: no DRAM write yet")
	}
	// Coherent mode: absent line goes straight to DRAM.
	h2 := newHarness(t, arch.CacheNUMAAware)
	l2 := h2.localLine(10)
	h2.sock.HomeWrite(l2, h2.eng.Bind(func(sim.Time, int) { done++ }), 0)
	h2.eng.Run()
	if h2.sock.DRAM().Writes.Value() != 1 {
		t.Fatal("coherent mode home write of absent line must reach DRAM")
	}
	if h2.sock.L2().Peek(l2) {
		t.Fatal("coherent mode must not allocate for remote writes")
	}
}

func TestHomeWriteBulk(t *testing.T) {
	h := newHarness(t, arch.CacheMemSideLocal)
	done := false
	h.sock.HomeWriteBulk(10, h.eng.Bind(func(sim.Time, int) { done = true }), 0)
	h.eng.Run()
	if !done {
		t.Fatal("bulk write must complete")
	}
	if h.sock.DRAM().Bytes.Total() != 10*arch.LineSize {
		t.Fatalf("bulk bytes %d", h.sock.DRAM().Bytes.Total())
	}
}

func TestDebugAccessors(t *testing.T) {
	h := newHarness(t, arch.CacheMemSideLocal)
	l1, l2, rm := h.sock.DebugPending()
	if l1+l2+rm != 0 {
		t.Fatal("fresh socket has pending entries")
	}
	q, res := h.sock.DebugCTAs()
	if q != 0 || res != 0 {
		t.Fatal("fresh socket has CTAs")
	}
	if h.sock.Crossbar() == nil || h.sock.Port() == nil || h.sock.ID() != 0 {
		t.Fatal("accessors broken")
	}
	if h.sock.RemoteReqWindow() == nil || h.sock.RemoteRespWindow() == nil {
		t.Fatal("meter accessors broken")
	}
	h.quiesced(t)
}
