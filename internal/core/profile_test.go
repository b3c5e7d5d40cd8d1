package core_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xlink"
)

// TestLinkProfileAlignment: every link's utilization series samples
// the same window boundaries, one per sampling period, and kernel
// launch marks fall within the run.
func TestLinkProfileAlignment(t *testing.T) {
	spec, _ := workload.ByName("HPC-HPGMG-UVM")
	cfg := arch.TestConfig()
	cfg.Obs = arch.ObsSpec{Series: true, SamplePeriod: 400}
	sys := core.MustSystem(cfg)
	res := sys.Run(spec.Program(workload.Options{IterScale: 0.2, MaxCTAs: 64}))
	if links := sys.Fabric().NumLinks(); links != cfg.Sockets {
		t.Fatalf("links %d, want %d", links, cfg.Sockets)
	}
	eg0, _ := sys.Obs().LinkUtil(0)
	n := eg0.Len()
	if n == 0 {
		t.Fatal("no utilization samples recorded")
	}
	for i := 0; i < cfg.Sockets; i++ {
		eg, in := sys.Obs().LinkUtil(i)
		if eg.Len() != n || in.Len() != n {
			t.Fatal("profile lengths differ across links")
		}
		for j := 0; j < n; j++ {
			at := eg0.At(j).At
			if eg.At(j).At != at || in.At(j).At != at {
				t.Fatal("window boundaries differ across links")
			}
			if at != sim.Time(400*(j+1)) {
				t.Fatalf("sample %d at cycle %d, want %d", j, at, 400*(j+1))
			}
		}
	}
	marks := sys.KernelLaunches()
	if len(marks) != len(res.KernelCycles) {
		t.Fatalf("kernel marks %d, want one per kernel (%d)", len(marks), len(res.KernelCycles))
	}
	for _, m := range marks {
		if uint64(m) > res.Cycles {
			t.Fatalf("kernel mark %d beyond end of run %d", m, res.Cycles)
		}
	}
}

// TestGatherPhaseAsymmetry: during HPGMG-UVM's gather phases, socket 0
// receives much more than it sends (writers target its memory), while
// sockets 1-3 send more than they receive — the Figure 5 phenomenon at
// whole-run granularity.
func TestGatherPhaseAsymmetry(t *testing.T) {
	spec, _ := workload.ByName("HPC-HPGMG-UVM")
	cfg := arch.TestConfig()
	sys := core.MustSystem(cfg)
	sys.Run(spec.Program(workload.Options{IterScale: 0.3, MaxCTAs: 96}))
	l0 := sys.Fabric().LinkAt(0)
	in0 := l0.Sent[xlink.Ingress].Value()
	eg0 := l0.Sent[xlink.Egress].Value()
	if in0 <= eg0 {
		t.Fatalf("socket 0 should be a net receiver: ingress %d vs egress %d", in0, eg0)
	}
	l1 := sys.Fabric().LinkAt(1)
	if l1.Sent[xlink.Egress].Value() <= l1.Sent[xlink.Ingress].Value() {
		t.Fatalf("socket 1 should be a net sender: egress %d vs ingress %d",
			l1.Sent[xlink.Egress].Value(), l1.Sent[xlink.Ingress].Value())
	}
}

// TestDynamicLinksHelpGatherWorkload: on a strongly asymmetric
// workload the balancer must not lose to static links.
func TestDynamicLinksHelpGatherWorkload(t *testing.T) {
	spec, _ := workload.ByName("ML-AlexNet-cudnn-Lev2")
	opts := workload.Options{IterScale: 0.4, MaxCTAs: 128}
	run := func(mode arch.LinkMode) core.Result {
		cfg := arch.TestConfig()
		cfg.LinkMode = mode
		return core.MustSystem(cfg).Run(spec.Program(opts))
	}
	static := run(arch.LinkStatic)
	dynamic := run(arch.LinkDynamic)
	if dynamic.LaneTurns == 0 {
		t.Fatal("balancer never engaged on a gather workload")
	}
	if float64(dynamic.Cycles) > 1.02*float64(static.Cycles) {
		t.Fatalf("dynamic links slower on gather workload: %d vs %d", dynamic.Cycles, static.Cycles)
	}
}

// TestNUMAAwareCachingHelpsTableWorkload: RSBench-style shared-table
// lookups must speed up substantially with NUMA-aware caching.
func TestNUMAAwareCachingHelpsTableWorkload(t *testing.T) {
	spec, _ := workload.ByName("HPC-RSBench")
	opts := workload.Options{IterScale: 0.15}
	run := func(mode arch.CacheMode) core.Result {
		// The 1/8-scale machine: its L2s can actually hold the shared
		// table once the partitioner biases ways toward remote data
		// (the tiny TestConfig caches cannot, making the mechanism moot).
		cfg := arch.ScaledConfig(8)
		cfg.CacheSampleTime = 2000
		cfg.CacheMode = mode
		return core.MustSystem(cfg).Run(spec.Program(opts))
	}
	base := run(arch.CacheMemSideLocal)
	numa := run(arch.CacheNUMAAware)
	sp := numa.SpeedupOver(base)
	if sp < 1.3 {
		t.Fatalf("NUMA-aware caching speedup %.2f on RSBench, want > 1.3", sp)
	}
	if numa.LinkBytes >= base.LinkBytes {
		t.Fatal("remote caching must reduce interconnect traffic")
	}
}
