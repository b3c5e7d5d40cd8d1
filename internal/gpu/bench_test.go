package gpu

// Model-level benchmarks: the per-access cost of the memory-system
// datapath (SM port → L1 → NoC → L2 → DRAM/remote), measured one layer
// above the event engine. Each benchmark drives one Socket directly
// with a fixed access pattern, so ns/op reads as ns per access pattern
// and allocs/op as the datapath's allocation rate. The L1-hit, L2-hit,
// L2-miss, remote-read, store and MSHR-merge paths must report 0
// allocs/op — CI gates on it — and BENCH_sim.json tracks all of them
// over time (scripts/bench.sh).

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/smcore"
	"repro/internal/vmm"
)

// benchHarness drives one socket without the experiment stack.
type benchHarness struct {
	eng   *sim.Engine
	cfg   arch.Config
	mm    *vmm.Memory
	drain *Drain
	sock  *Socket
	done  int
}

// newBenchHarness builds a socket in the given cache mode; sms > 0
// overrides the per-socket SM count of arch.TestConfig.
func newBenchHarness(mode arch.CacheMode, sms int) *benchHarness {
	cfg := arch.TestConfig()
	cfg.CacheMode = mode
	if sms > 0 {
		cfg.SMsPerSocket = sms
	}
	eng := sim.New()
	h := &benchHarness{
		eng:   eng,
		cfg:   cfg,
		mm:    vmm.New(cfg.Sockets, arch.PlaceFirstTouch),
		drain: &Drain{},
	}
	remote := newFakeRemote(eng)
	h.sock = NewSocket(eng, cfg, 0, h.mm, remote, nil, h.drain, func(arch.SocketID) {})
	h.sock.onLoadDone = func(sm, slot int) { h.done++ }
	return h
}

// load issues a coalesced warp load from SM sm and counts completions.
func (h *benchHarness) load(sm int, lines []arch.LineID) {
	h.sock.Load(sm, lines, 0)
}

// localLine returns line i of page i, homed on socket 0 (first touch).
func (h *benchHarness) localLine(i int) arch.LineID {
	l := arch.LineID(i * (arch.PageSize / arch.LineSize))
	h.mm.Owner(l, 0)
	return l
}

// remoteLine returns a line homed on socket 1.
func (h *benchHarness) remoteLine(i int) arch.LineID {
	l := arch.LineID((1 << 40) + uint64(i)*(arch.PageSize/arch.LineSize))
	h.mm.Owner(l, 1)
	return l
}

// BenchmarkModelL1Hit is the hottest path in the whole simulator: a
// warp load that hits in the SM's private L1. One op = one 1-line load
// plus draining its completion event.
func BenchmarkModelL1Hit(b *testing.B) {
	h := newBenchHarness(arch.CacheMemSideLocal, 0)
	lines := []arch.LineID{h.localLine(1)}
	h.load(0, lines) // warm: fill L1 (and L2) once
	h.eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.load(0, lines)
		h.eng.Run()
	}
	b.StopTimer()
	if h.done != b.N+1 {
		b.Fatalf("completions %d, want %d", h.done, b.N+1)
	}
}

// BenchmarkModelL2Hit: L1 miss, shared-L2 hit. One op = invalidate the
// line in the L1, then a 1-line load serviced by the L2 (request over
// the NoC, L2 lookup, response, L1 fill).
func BenchmarkModelL2Hit(b *testing.B) {
	h := newBenchHarness(arch.CacheMemSideLocal, 0)
	l := h.localLine(1)
	lines := []arch.LineID{l}
	h.load(0, lines)
	h.eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.sock.L1(0).Invalidate(l)
		h.load(0, lines)
		h.eng.Run()
	}
	b.StopTimer()
	if h.done != b.N+1 {
		b.Fatalf("completions %d, want %d", h.done, b.N+1)
	}
}

// BenchmarkModelL2Miss: the full local path. One op = invalidate the
// line in L1 and L2, then a 1-line load that misses both and fetches
// from DRAM through the MSHR.
func BenchmarkModelL2Miss(b *testing.B) {
	h := newBenchHarness(arch.CacheMemSideLocal, 0)
	l := h.localLine(1)
	lines := []arch.LineID{l}
	h.load(0, lines)
	h.eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.sock.L1(0).Invalidate(l)
		h.sock.L2().Invalidate(l)
		h.load(0, lines)
		h.eng.Run()
	}
	b.StopTimer()
	if h.done != b.N+1 {
		b.Fatalf("completions %d, want %d", h.done, b.N+1)
	}
	if got := h.sock.DRAM().Reads.Value(); got != uint64(b.N)+1 {
		b.Fatalf("DRAM reads %d, want %d", got, b.N+1)
	}
}

// BenchmarkModelRemoteRead: remote-class load in a mode that caches
// remote data (Figure 7(d)). One op = invalidate L1+L2, then a 1-line
// load that posts a remote fetch through rmPending and completes when
// the (fake, fixed-latency) response returns.
func BenchmarkModelRemoteRead(b *testing.B) {
	h := newBenchHarness(arch.CacheNUMAAware, 0)
	l := h.remoteLine(1)
	lines := []arch.LineID{l}
	h.load(0, lines)
	h.eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.sock.L1(0).Invalidate(l)
		h.sock.L2().Invalidate(l)
		h.load(0, lines)
		h.eng.Run()
	}
	b.StopTimer()
	if h.done != b.N+1 {
		b.Fatalf("completions %d, want %d", h.done, b.N+1)
	}
}

// BenchmarkModelStore: the store fast path. One op = one 1-line local
// store (write-allocate hit in the write-back L2) plus its drain.
func BenchmarkModelStore(b *testing.B) {
	h := newBenchHarness(arch.CacheMemSideLocal, 0)
	l := h.localLine(1)
	lines := []arch.LineID{l}
	h.sock.Store(0, lines)
	h.eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.sock.Store(0, lines)
		h.eng.Run()
	}
	b.StopTimer()
	if h.drain.Outstanding() != 0 {
		b.Fatal("stores must drain")
	}
}

// BenchmarkModelMSHRMerge: the miss-merge storm. One op = 16 loads of
// one cold line (4 SMs × 4 warps each): one DRAM fetch, three L2-level
// MSHR merges, twelve L1-level merges. The line advances every op over
// a window far larger than the L2, so the primary always misses.
func BenchmarkModelMSHRMerge(b *testing.B) {
	const smCount, loadsPerSM, window = 4, 4, 8192
	h := newBenchHarness(arch.CacheMemSideLocal, smCount)
	for i := 0; i < window; i++ {
		h.localLine(i) // pre-touch so placement cost is off the timer
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines := []arch.LineID{arch.LineID((i % window) * (arch.PageSize / arch.LineSize))}
		for sm := 0; sm < smCount; sm++ {
			for k := 0; k < loadsPerSM; k++ {
				h.load(sm, lines)
			}
		}
		h.eng.Run()
	}
	b.StopTimer()
	if h.done != b.N*smCount*loadsPerSM {
		b.Fatalf("completions %d, want %d", h.done, b.N*smCount*loadsPerSM)
	}
	if l1, l2, rm := h.sock.DebugPending(); l1+l2+rm != 0 {
		b.Fatalf("pending MSHR entries leaked: %d/%d/%d", l1, l2, rm)
	}
}

// benchStream is a resettable scripted instruction stream, so one CTA
// set can be replayed across benchmark iterations.
type benchStream struct {
	instrs []smcore.Instr
	pos    int
}

func (s *benchStream) Next(in *smcore.Instr) bool {
	if s.pos >= len(s.instrs) {
		return false
	}
	*in = s.instrs[s.pos]
	s.pos++
	return true
}

// BenchmarkModelSocketWorkload: end-to-end through the SMs. One op =
// one small kernel (8 CTAs × 2 warps of interleaved compute, loads and
// stores) dispatched, executed and drained on one socket.
func BenchmarkModelSocketWorkload(b *testing.B) {
	h := newBenchHarness(arch.CacheMemSideLocal, 0)
	h.sock.onLoadDone = h.sock.dispatchLoadDone // real SMs consume completions here
	kernelsDone := 0
	h.sock.onAllDone = func(arch.SocketID) { kernelsDone++ }
	const ctaCount, warps = 8, 2
	var streams []*benchStream
	var ctas []smcore.CTA
	for c := 0; c < ctaCount; c++ {
		cta := smcore.CTA{ID: c}
		for w := 0; w < warps; w++ {
			var list []smcore.Instr
			for i := 0; i < 6; i++ {
				n := c*warps*8 + w*8 + i
				line := h.localLine(n % 97)
				list = append(list,
					smcore.Instr{Op: smcore.OpLoad, Comp: 4, Lines: []arch.LineID{line}},
					smcore.Instr{Op: smcore.OpNone, Comp: 3},
					smcore.Instr{Op: smcore.OpStore, Lines: []arch.LineID{line}},
				)
			}
			st := &benchStream{instrs: list}
			streams = append(streams, st)
			cta.Warps = append(cta.Warps, st)
		}
		ctas = append(ctas, cta)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range streams {
			st.pos = 0
		}
		h.sock.EnqueueKernel(ctas)
		h.eng.Run()
	}
	b.StopTimer()
	if kernelsDone != b.N {
		b.Fatalf("kernels completed %d, want %d", kernelsDone, b.N)
	}
	if h.drain.Outstanding() != 0 {
		b.Fatal("socket must drain")
	}
}
