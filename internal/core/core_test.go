package core_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/smcore"
	"repro/internal/vmm"
	"repro/internal/workload"
)

// gridKernel is a minimal core.Kernel for runtime tests: every warp
// issues a fixed number of loads over its own slice of one buffer.
type gridKernel struct {
	name  string
	ctas  int
	warps int
	loads int
	store bool
}

func (k *gridKernel) Name() string     { return k.name }
func (k *gridKernel) CTAs() int        { return k.ctas }
func (k *gridKernel) WarpsPerCTA() int { return k.warps }

type gridStream struct {
	base arch.LineID
	n    int
	pos  int
	buf  [1]arch.LineID
	st   bool
}

func (g *gridStream) Next(in *smcore.Instr) bool {
	if g.pos >= g.n {
		return false
	}
	g.buf[0] = g.base + arch.LineID(g.pos)
	in.Comp = 2
	in.Op = smcore.OpLoad
	if g.st && g.pos%2 == 1 {
		in.Op = smcore.OpStore
	}
	in.Lines = g.buf[:1]
	g.pos++
	return true
}

func (k *gridKernel) Warp(c, w int) smcore.InstrStream {
	gw := int64(c)*int64(k.warps) + int64(w)
	// One 4KB page per warp so first touch gives perfect locality.
	base := arch.LineID(gw * int64(arch.PageSize/arch.LineSize))
	return &gridStream{base: base, n: k.loads, st: k.store}
}

func TestKernelSequenceAndMarks(t *testing.T) {
	cfg := arch.TestConfig()
	sys := core.MustSystem(cfg)
	prog := core.Program{
		Name: "seq",
		Kernels: []core.Kernel{
			&gridKernel{name: "k0", ctas: 16, warps: 2, loads: 6},
			&gridKernel{name: "k1", ctas: 16, warps: 2, loads: 6},
			&gridKernel{name: "k2", ctas: 16, warps: 2, loads: 6},
		},
	}
	res := sys.Run(prog)
	if len(res.KernelCycles) != 3 {
		t.Fatalf("kernel cycles %v, want 3 entries", res.KernelCycles)
	}
	for i, kc := range res.KernelCycles {
		if kc == 0 {
			t.Fatalf("kernel %d took zero cycles", i)
		}
	}
	if marks := sys.KernelLaunches(); len(marks) != 3 {
		t.Fatalf("kernel marks %d, want 3", len(marks))
	}
}

func TestSystemSingleUse(t *testing.T) {
	cfg := arch.TestConfig()
	sys := core.MustSystem(cfg)
	prog := core.Program{Kernels: []core.Kernel{&gridKernel{ctas: 4, warps: 1, loads: 2}}}
	sys.Run(prog)
	defer func() {
		if recover() == nil {
			t.Fatal("second Run must panic")
		}
	}()
	sys.Run(prog)
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := arch.TestConfig()
	cfg.Sockets = 0
	if _, err := core.NewSystem(cfg); err == nil {
		t.Fatal("invalid config must be rejected")
	}
}

func TestDeterministicRuns(t *testing.T) {
	spec, _ := workload.ByName("HPC-CoMD")
	opts := workload.Options{IterScale: 0.2, MaxCTAs: 64}
	run := func() core.Result {
		cfg := arch.TestConfig()
		cfg.CacheMode = arch.CacheNUMAAware
		cfg.LinkMode = arch.LinkDynamic
		return core.MustSystem(cfg).Run(spec.Program(opts))
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Fatalf("nondeterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
	if a.LinkBytes != b.LinkBytes {
		t.Fatalf("nondeterministic link bytes: %d vs %d", a.LinkBytes, b.LinkBytes)
	}
	if a.Instructions != b.Instructions {
		t.Fatalf("nondeterministic instructions: %d vs %d", a.Instructions, b.Instructions)
	}
}

func TestBlockSchedulingLocality(t *testing.T) {
	// The grid kernel touches one page per warp: under block scheduling
	// plus first touch, everything must be local after placement.
	cfg := arch.TestConfig()
	sys := core.MustSystem(cfg)
	res := sys.Run(core.Program{Kernels: []core.Kernel{
		&gridKernel{ctas: 32, warps: 2, loads: 8},
	}})
	if res.RemoteAccessFraction != 0 {
		t.Fatalf("remote fraction %v, want 0 for page-aligned block-scheduled grid",
			res.RemoteAccessFraction)
	}
}

func TestFineGrainSchedulingStillLocal(t *testing.T) {
	// Fine-grain CTA interleave with first-touch still places each
	// warp's private page locally — the damage comes with multi-kernel
	// reuse, not single-kernel private data.
	cfg := arch.TestConfig()
	cfg.Sched = arch.SchedFineGrain
	sys := core.MustSystem(cfg)
	res := sys.Run(core.Program{Kernels: []core.Kernel{
		&gridKernel{ctas: 32, warps: 2, loads: 8},
	}})
	if res.RemoteAccessFraction != 0 {
		t.Fatalf("first touch must follow the scheduler, remote=%v", res.RemoteAccessFraction)
	}
}

func TestFineInterleavePlacementRemote(t *testing.T) {
	cfg := arch.TestConfig()
	cfg.Placement = arch.PlaceFineInterleave
	sys := core.MustSystem(cfg)
	res := sys.Run(core.Program{Kernels: []core.Kernel{
		&gridKernel{ctas: 32, warps: 2, loads: 8},
	}})
	if res.RemoteAccessFraction < 0.7 || res.RemoteAccessFraction > 0.8 {
		t.Fatalf("fine interleave remote fraction %v, want ~0.75", res.RemoteAccessFraction)
	}
}

func TestResultMetricsPopulated(t *testing.T) {
	spec, _ := workload.ByName("HPC-RSBench")
	cfg := arch.TestConfig()
	cfg.CacheMode = arch.CacheNUMAAware
	cfg.LinkMode = arch.LinkDynamic
	sys := core.MustSystem(cfg)
	res := sys.Run(spec.Program(workload.Options{IterScale: 0.2, MaxCTAs: 64}))
	if res.Loads == 0 || res.Instructions == 0 {
		t.Fatal("instruction metrics empty")
	}
	if res.LinkBytes == 0 {
		t.Fatal("link bytes empty for a remote-heavy workload")
	}
	if res.Seconds() <= 0 {
		t.Fatal("seconds must be positive")
	}
	if res.InterconnectEnergy() <= 0 || res.InterconnectPower() <= 0 {
		t.Fatal("energy model must be positive with link traffic")
	}
	sp := res.SpeedupOver(res)
	if sp != 1 {
		t.Fatalf("self speedup %v, want 1", sp)
	}
}

func TestStoresDrainBeforeKernelBoundary(t *testing.T) {
	// A store-heavy kernel followed by another kernel: the boundary
	// must wait for all writes (no negative drain, no deadlock).
	cfg := arch.TestConfig()
	sys := core.MustSystem(cfg)
	res := sys.Run(core.Program{Kernels: []core.Kernel{
		&gridKernel{name: "w", ctas: 24, warps: 2, loads: 10, store: true},
		&gridKernel{name: "r", ctas: 24, warps: 2, loads: 10},
	}})
	if len(res.KernelCycles) != 2 {
		t.Fatal("both kernels must complete")
	}
	if res.Stores == 0 {
		t.Fatal("no stores recorded")
	}
}

func TestMoreCTAsThanResident(t *testing.T) {
	// Many more CTAs than resident capacity: multiple dispatch waves.
	cfg := arch.TestConfig()
	sys := core.MustSystem(cfg)
	res := sys.Run(core.Program{Kernels: []core.Kernel{
		&gridKernel{ctas: 500, warps: 2, loads: 3},
	}})
	want := uint64(500 * 2 * 3)
	if res.Instructions != want {
		t.Fatalf("instructions %d, want %d", res.Instructions, want)
	}
}

func TestFewerCTAsThanSockets(t *testing.T) {
	// 2 CTAs on 4 sockets: two sockets idle, still completes.
	cfg := arch.TestConfig()
	sys := core.MustSystem(cfg)
	res := sys.Run(core.Program{Kernels: []core.Kernel{
		&gridKernel{ctas: 2, warps: 1, loads: 4},
	}})
	if res.Instructions != 8 {
		t.Fatalf("instructions %d, want 8", res.Instructions)
	}
}

func TestEightSocketSystem(t *testing.T) {
	cfg := arch.TestConfig().WithSockets(8)
	sys := core.MustSystem(cfg)
	spec, _ := workload.ByName("Rodinia-Hotspot")
	res := sys.Run(spec.Program(workload.Options{IterScale: 0.15, MaxCTAs: 128}))
	if res.Cycles == 0 {
		t.Fatal("8-socket run failed")
	}
}

func TestSystemString(t *testing.T) {
	sys := core.MustSystem(arch.TestConfig())
	if sys.String() == "" {
		t.Fatal("empty string representation")
	}
}

// TestLinkBytesCountsEveryLinkCrossed pins what Result.LinkBytes
// counts: each message once per link it crosses. One warp on socket 1
// reads one line homed on socket 0 of a 2-socket synthesized star; the
// request and the response each cross socket 1's link and socket 0's.
func TestLinkBytesCountsEveryLinkCrossed(t *testing.T) {
	cfg := arch.TestConfig()
	cfg.Sockets = 2
	if cfg.RequestHeader != 32 || cfg.ResponseHeader != 32 {
		t.Fatalf("headers %d/%d, the test assumes 32/32", cfg.RequestHeader, cfg.ResponseHeader)
	}
	res := core.MustSystem(cfg).Run(core.Program{
		Setup: func(m *vmm.Memory) { m.Preplace(0, arch.PageSize, 0) },
		// Block scheduling puts the one CTA on socket 1.
		Kernels: []core.Kernel{&gridKernel{ctas: 1, warps: 1, loads: 1}},
	})
	if res.Loads != 1 || res.RemoteAccessFraction != 1 {
		t.Fatalf("loads %d, remote fraction %v: want one remote read", res.Loads, res.RemoteAccessFraction)
	}
	const request, response = 32, arch.LineSize + 32
	if want := uint64(2*request + 2*response); res.LinkBytes != want || want != 384 {
		t.Fatalf("one remote read added %d link bytes, want %d", res.LinkBytes, want)
	}
}
