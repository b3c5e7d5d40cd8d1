package core_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// testOptions shrinks workloads for unit testing.
func testOptions() workload.Options {
	return workload.Options{IterScale: 0.25, MaxCTAs: 96}
}

// TestSmokeSingleSocket runs a streaming workload on a tiny single GPU.
func TestSmokeSingleSocket(t *testing.T) {
	cfg := arch.TestConfig()
	cfg.Sockets = 1
	spec, ok := workload.ByName("Other-Stream-Triad")
	if !ok {
		t.Fatal("missing workload")
	}
	sys := core.MustSystem(cfg)
	res := sys.Run(spec.Program(testOptions()))
	if res.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	if res.Instructions == 0 {
		t.Fatal("no instructions issued")
	}
	if res.RemoteAccessFraction != 0 {
		t.Fatalf("single socket must have zero remote accesses, got %v", res.RemoteAccessFraction)
	}
	t.Logf("cycles=%d instrs=%d l1=%.2f", res.Cycles, res.Instructions, res.L1HitRate)
}

// TestSmokeFourSocketModes runs one remote-heavy workload through every
// cache mode and link mode combination on 4 sockets.
func TestSmokeFourSocketModes(t *testing.T) {
	spec, ok := workload.ByName("HPC-RSBench")
	if !ok {
		t.Fatal("missing workload")
	}
	for _, cm := range []arch.CacheMode{arch.CacheMemSideLocal, arch.CacheStaticPartition, arch.CacheSharedCoherent, arch.CacheNUMAAware} {
		for _, lm := range []arch.LinkMode{arch.LinkStatic, arch.LinkDynamic} {
			cfg := arch.TestConfig()
			cfg.CacheMode = cm
			cfg.LinkMode = lm
			sys := core.MustSystem(cfg)
			res := sys.Run(spec.Program(testOptions()))
			if res.Cycles == 0 {
				t.Fatalf("%v/%v: no cycles", cm, lm)
			}
			if res.RemoteAccessFraction == 0 {
				t.Fatalf("%v/%v: expected remote accesses on 4 sockets", cm, lm)
			}
			t.Logf("%v/%v: cycles=%d remote=%.2f linkB=%d turns=%d shifts=%d",
				cm, lm, res.Cycles, res.RemoteAccessFraction, res.LinkBytes, res.LaneTurns, res.WayShifts)
		}
	}
}

// TestSmokeScheduling verifies the locality runtime beats the
// traditional fine-grain + interleave configuration on a local stencil.
func TestSmokeScheduling(t *testing.T) {
	spec, ok := workload.ByName("Rodinia-Hotspot")
	if !ok {
		t.Fatal("missing workload")
	}
	run := func(sched arch.CTASched, place arch.MemPlacement) core.Result {
		cfg := arch.TestConfig()
		cfg.Sched = sched
		cfg.Placement = place
		sys := core.MustSystem(cfg)
		return sys.Run(spec.Program(testOptions()))
	}
	loc := run(arch.SchedBlock, arch.PlaceFirstTouch)
	trad := run(arch.SchedFineGrain, arch.PlaceFineInterleave)
	if loc.RemoteAccessFraction >= trad.RemoteAccessFraction {
		t.Fatalf("locality runtime should reduce remote fraction: loc=%.3f trad=%.3f",
			loc.RemoteAccessFraction, trad.RemoteAccessFraction)
	}
	if loc.Cycles >= trad.Cycles {
		t.Fatalf("locality runtime should be faster: loc=%d trad=%d", loc.Cycles, trad.Cycles)
	}
	t.Logf("locality: %d cycles remote %.3f; traditional: %d cycles remote %.3f",
		loc.Cycles, loc.RemoteAccessFraction, trad.Cycles, trad.RemoteAccessFraction)
}

// TestSmokeMultiKernel runs a phased workload with gather traffic and
// checks that kernels, their launch marks and the per-link utilization
// series are recorded.
func TestSmokeMultiKernel(t *testing.T) {
	spec, ok := workload.ByName("HPC-HPGMG-UVM")
	if !ok {
		t.Fatal("missing workload")
	}
	cfg := arch.TestConfig()
	cfg.Obs = arch.ObsSpec{Series: true, SamplePeriod: 500}
	sys := core.MustSystem(cfg)
	res := sys.Run(spec.Program(testOptions()))
	if len(res.KernelCycles) != 10 {
		t.Fatalf("expected 10 kernel launches, got %d", len(res.KernelCycles))
	}
	if links := sys.Fabric().NumLinks(); links != cfg.Sockets {
		t.Fatalf("expected %d links, got %d", cfg.Sockets, links)
	}
	if marks := sys.KernelLaunches(); len(marks) != 10 {
		t.Fatalf("expected 10 kernel marks, got %d", len(marks))
	}
	if eg, in := sys.Obs().LinkUtil(0); eg.Len() == 0 || in.Len() == 0 {
		t.Fatal("no utilization samples recorded")
	}
}
