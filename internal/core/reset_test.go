package core_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/smcore"
	"repro/internal/topo"
	"repro/internal/workload"
	"repro/internal/xlink"
)

// resetCase is one configuration of the reset differential test.
type resetCase struct {
	name string
	cfg  arch.Config
}

// resetCases covers every construction path a reset has to undo: the
// harness presets at every socket count the figures use, every cache
// mode, dynamic links with quick lane turns, the write-through and
// no-invalidate L2 variants, and an explicit weighted topology with a
// per-socket resource override.
func resetCases(t *testing.T) []resetCase {
	base := func(sockets int) arch.Config {
		c := arch.TestConfig()
		c.Sockets = sockets
		c.Sched = arch.SchedBlock
		c.Placement = arch.PlaceFirstTouch
		c.CacheMode = arch.CacheMemSideLocal
		c.LinkMode = arch.LinkStatic
		return c
	}
	with := func(c arch.Config, f func(*arch.Config)) arch.Config {
		f(&c)
		return c
	}
	numaAware := func(sockets int) arch.Config {
		return with(base(sockets), func(c *arch.Config) {
			c.CacheMode = arch.CacheNUMAAware
			c.LinkMode = arch.LinkDynamic
		})
	}
	top, err := topo.Parse([]byte(`{
		"sockets": [{"weight": 2}, {"sms": 1}, {}, {"l2_bytes": 16384}],
		"links": [
			{"a": 0, "b": 1, "lanes_ab": 6, "lanes_ba": 2, "latency_ab": 64, "latency_ba": 64},
			{"a": 2, "b": 3},
			{"a": 1, "b": 2, "lanes_ab": 2, "lanes_ba": 2, "latency_ab": 256, "latency_ba": 256, "hops_ab": 1, "hops_ba": 1}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cases := []resetCase{
		{"base-1", base(1)},
		{"base-2", base(2)},
		{"base-4", base(4)},
		{"base-8", base(8)},
		{"traditional-4", with(base(4), func(c *arch.Config) {
			c.Sched = arch.SchedFineGrain
			c.Placement = arch.PlaceFineInterleave
		})},
		{"numa-aware-4", numaAware(4)},
		{"numa-aware-8", numaAware(8)},
		{"monolithic-4", base(1).Monolithic(4)},
		{"static-partition-4", with(base(4), func(c *arch.Config) { c.CacheMode = arch.CacheStaticPartition })},
		{"shared-coherent-4", with(base(4), func(c *arch.Config) { c.CacheMode = arch.CacheSharedCoherent })},
		{"dynamic-links-4", with(base(4), func(c *arch.Config) {
			c.LinkMode = arch.LinkDynamic
			c.LaneSwitchTime = 10
		})},
		{"write-through-4", with(numaAware(4), func(c *arch.Config) { c.L2WriteThrough = true })},
		{"no-invalidate-4", with(numaAware(4), func(c *arch.Config) { c.NoL2Invalidate = true })},
		{"topology-4", with(numaAware(4), func(c *arch.Config) {
			c.Placement = arch.PlacePageInterleave
			c.Topology = top
		})},
	}
	if testing.Short() {
		// Every construction path once, on the quickest case of each.
		keep := []string{"base-1", "base-4", "traditional-4", "numa-aware-8", "monolithic-4",
			"static-partition-4", "dynamic-links-4", "write-through-4", "no-invalidate-4", "topology-4"}
		cases = slices.DeleteFunc(cases, func(c resetCase) bool { return !slices.Contains(keep, c.name) })
	}
	return cases
}

// counters reads the statistics a System's components keep beyond its
// Result, in a fixed order: cache fills and evictions, DRAM, crossbar
// and remote-traffic meters, SM busy cycles, first-touch migrations,
// link lanes and turns, and the clock.
func counters(sys *core.System) []uint64 {
	var out []uint64
	cache := func(c *mem.Cache) {
		for cl := range c.Fills {
			out = append(out, c.Fills[cl].Value(), c.Evic[cl].Value(), c.Hit[cl].Accesses())
		}
	}
	for i := 0; i < sys.Config().Sockets; i++ {
		sock := sys.Socket(i)
		for j, sm := range sock.SMs {
			cache(sock.L1(j))
			out = append(out, sm.BusyCycles.Value())
		}
		cache(sock.L2())
		d := sock.DRAM()
		out = append(out, d.Reads.Value(), d.Writes.Value(), d.Bytes.Total(), sock.Crossbar().Bytes.Total(),
			sock.RemoteReqWindow().Total(), sock.RemoteRespWindow().Total())
	}
	out = append(out, sys.Memory().Migrations.Value(), uint64(sys.Memory().MappedPages()))
	if f := sys.Fabric(); f != nil {
		for i := 0; i < f.NumLinks(); i++ {
			l := f.LinkAt(i)
			out = append(out, uint64(l.Lanes(xlink.Egress)), uint64(l.Lanes(xlink.Ingress)), l.Turns.Value())
		}
	}
	return append(out, uint64(sys.Engine().Now()))
}

// TestResetMatchesFresh is the reset differential test: one System
// runs workload A, is reset, runs B, is reset and runs A again. Each
// run after a reset must produce the Result, event count and
// component statistics of a fresh System running the same program,
// and the Results returned before a reset must keep their contents.
func TestResetMatchesFresh(t *testing.T) {
	a, _ := workload.ByName("Rodinia-Euler3D")
	b, _ := workload.ByName("HPC-CoMD") // two kernels, stores and a gather phase
	opts := workload.Options{IterScale: 0.1, MaxCTAs: 48}
	if testing.Short() {
		opts.MaxCTAs = 16
	}
	for _, c := range resetCases(t) {
		t.Run(c.name, func(t *testing.T) {
			fresh := func(spec workload.Spec) (core.Result, uint64, []uint64) {
				sys := core.MustSystem(c.cfg)
				res := sys.Run(spec.Program(opts))
				return res, sys.Engine().Executed(), counters(sys)
			}
			sys := core.MustSystem(c.cfg)
			first := sys.Run(a.Program(opts))
			kept := first
			kept.KernelCycles = slices.Clone(first.KernelCycles)
			marks := slices.Clone(sys.KernelLaunches())
			launches := sys.KernelLaunches()
			for _, spec := range []workload.Spec{b, a} {
				if err := sys.Reset(); err != nil {
					t.Fatal(err)
				}
				got := sys.Run(spec.Program(opts))
				want, events, stats := fresh(spec)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s after a reset diverged from a fresh System:\nfresh: %+v\nreset: %+v", spec.Name, want, got)
				}
				if n := sys.Engine().Executed(); n != events {
					t.Fatalf("%s after a reset executed %d events, a fresh System %d", spec.Name, n, events)
				}
				if got := counters(sys); !slices.Equal(got, stats) {
					t.Fatalf("%s after a reset left other component statistics than a fresh System:\nfresh: %v\nreset: %v", spec.Name, stats, got)
				}
				if !reflect.DeepEqual(first, kept) || !slices.Equal(launches, marks) {
					t.Fatalf("running %s changed an earlier Result or its kernel launches", spec.Name)
				}
			}
		})
	}
}

// TestResetMultiKernelProgram runs a hand-built three-kernel program
// with stores after a reset: the CTA lists and warp buffers reused
// across kernels and runs must hand every kernel its own streams.
func TestResetMultiKernelProgram(t *testing.T) {
	prog := func(loads int) core.Program {
		return core.Program{Name: "grid", Kernels: []core.Kernel{
			&gridKernel{name: "k0", ctas: 16, warps: 2, loads: loads, store: true},
			&gridKernel{name: "k1", ctas: 8, warps: 4, loads: loads},
			&gridKernel{name: "k2", ctas: 24, warps: 1, loads: loads, store: true},
		}}
	}
	cfg := arch.TestConfig()
	cfg.CacheMode = arch.CacheNUMAAware
	sys := core.MustSystem(cfg)
	sys.Run(prog(9))
	if err := sys.Reset(); err != nil {
		t.Fatal(err)
	}
	got := sys.Run(prog(5))
	want := core.MustSystem(cfg).Run(prog(5))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reset run diverged:\nfresh: %+v\nreset: %+v", want, got)
	}
	if len(got.KernelCycles) != 3 {
		t.Fatalf("kernel cycles %v, want 3 entries", got.KernelCycles)
	}
}

// TestResetKeepsHandlers: a reset binds nothing, so the engine's
// handler table stays the size construction left it however many runs
// the System serves.
func TestResetKeepsHandlers(t *testing.T) {
	cfg := arch.TestConfig()
	cfg.CacheMode = arch.CacheNUMAAware
	cfg.LinkMode = arch.LinkDynamic
	sys := core.MustSystem(cfg)
	noop := func(sim.Time, int) {}
	before := sys.Engine().Bind(noop)
	prog := core.Program{Kernels: []core.Kernel{&gridKernel{ctas: 8, warps: 2, loads: 4}}}
	for i := 0; i < 3; i++ {
		sys.Run(prog)
		if err := sys.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	if after := sys.Engine().Bind(noop); after != before+1 {
		t.Fatalf("three reset runs bound %d handlers", after-before-1)
	}
}

// panicKernel fails while its CTAs are being built, leaving its run
// unfinished.
type panicKernel struct{ gridKernel }

func (k *panicKernel) Warp(int, int) smcore.InstrStream { panic("kernel fails") }

// TestResetRefusals: Reset refuses an observed System and one whose
// Run did not finish, and leaves a System that has not run as it is.
func TestResetRefusals(t *testing.T) {
	cfg := arch.TestConfig()
	if err := core.MustSystem(cfg).Reset(); err != nil {
		t.Fatalf("reset of an unused System: %v", err)
	}

	observed := cfg
	observed.Obs = arch.ObsSpec{Series: true}
	sys := core.MustSystem(observed)
	sys.Run(core.Program{Kernels: []core.Kernel{&gridKernel{ctas: 4, warps: 1, loads: 2}}})
	if err := sys.Reset(); err == nil || !strings.Contains(err.Error(), "observed") {
		t.Fatalf("reset of an observed System returned %v", err)
	}

	sys = core.MustSystem(cfg)
	func() {
		defer func() { _ = recover() }()
		sys.Run(core.Program{Kernels: []core.Kernel{&panicKernel{gridKernel{ctas: 4, warps: 1, loads: 2}}}})
	}()
	if err := sys.Reset(); err == nil || !strings.Contains(err.Error(), "did not finish") {
		t.Fatalf("reset of an unfinished System returned %v", err)
	}
}
