package exp

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// quickRunner builds a harness over a 2-workload subset at tiny scale.
func quickRunner() *Runner {
	var subset []workload.Spec
	for _, name := range []string{"HPC-RSBench", "Rodinia-Hotspot", "Other-Stream-Triad"} {
		s, _ := workload.ByName(name)
		subset = append(subset, s)
	}
	return NewRunner(Options{Divisor: 16, IterScale: 0.1, MaxCTAs: 64, Workloads: subset})
}

func TestOptionsNormalization(t *testing.T) {
	r := NewRunner(Options{})
	o := r.Options()
	if o.Divisor != 8 || o.IterScale != 1 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	if len(o.Workloads) != 41 {
		t.Fatalf("default workload set %d, want 41", len(o.Workloads))
	}
	if o.Parallelism < 1 {
		t.Fatalf("default parallelism %d, want >= 1 (GOMAXPROCS)", o.Parallelism)
	}
}

func TestRunnerMemoization(t *testing.T) {
	r := quickRunner()
	spec := r.opts.Workloads[0]
	a := r.Run(r.Base(2), spec)
	b := r.Run(r.Base(2), spec)
	if a.Cycles != b.Cycles {
		t.Fatal("memoized run differs")
	}
	if len(r.memo) != 1 {
		t.Fatalf("memo entries %d, want 1", len(r.memo))
	}
	r.Run(r.NUMAAware(2), spec)
	if len(r.memo) != 2 {
		t.Fatalf("distinct configs must get distinct memo keys, have %d", len(r.memo))
	}
}

func TestConfigKeyDistinguishes(t *testing.T) {
	r := quickRunner()
	keys := map[string]bool{}
	cfgs := []arch.Config{
		r.Base(2), r.Base(4), r.Traditional(4), r.NUMAAware(4), r.Monolithic(4),
	}
	c := r.Base(4)
	c.L2WriteThrough = true
	cfgs = append(cfgs, c)
	c2 := r.Base(4)
	c2.NoL2Invalidate = true
	cfgs = append(cfgs, c2)
	c3 := r.Base(4)
	c3.LinkSampleTime = 777
	cfgs = append(cfgs, c3)
	for _, cfg := range cfgs {
		k := cfgKey(cfg)
		if keys[k] {
			t.Fatalf("config key collision: %s", k)
		}
		keys[k] = true
	}
}

func TestBaselineConfigs(t *testing.T) {
	r := quickRunner()
	b := r.Base(4)
	if b.Sched != arch.SchedBlock || b.Placement != arch.PlaceFirstTouch {
		t.Fatal("base must be the locality runtime")
	}
	if b.CacheMode != arch.CacheMemSideLocal || b.LinkMode != arch.LinkStatic {
		t.Fatal("base must be memory-side L2 with static links")
	}
	tr := r.Traditional(4)
	if tr.Sched != arch.SchedFineGrain || tr.Placement != arch.PlaceFineInterleave {
		t.Fatal("traditional config wrong")
	}
	na := r.NUMAAware(4)
	if na.CacheMode != arch.CacheNUMAAware || na.LinkMode != arch.LinkDynamic {
		t.Fatal("NUMA-aware config wrong")
	}
	m := r.Monolithic(4)
	if m.Sockets != 1 {
		t.Fatal("monolithic config wrong")
	}
}

func TestFigure2Data(t *testing.T) {
	r := NewRunner(Options{}) // full table, no simulation needed
	res := Figure2(r)
	if res.Summary["fill_1x_pct"] != 100 {
		t.Fatalf("1x fill %v, want 100%%", res.Summary["fill_1x_pct"])
	}
	// Paper Figure 2 shape: monotonically non-increasing, ≥80% at 8×.
	last := 101.0
	for _, k := range []string{"fill_1x_pct", "fill_2x_pct", "fill_4x_pct", "fill_8x_pct"} {
		v := res.Summary[k]
		if v > last {
			t.Fatalf("fill percentages must not increase: %v", res.Summary)
		}
		last = v
	}
	if res.Summary["fill_8x_pct"] < 75 {
		t.Fatalf("8x fill %v, paper shows ≈80%%", res.Summary["fill_8x_pct"])
	}
}

func TestTable1Content(t *testing.T) {
	r := quickRunner()
	res := Table1(r)
	out := res.Table.String()
	for _, want := range []string{"768GB/s", "100ns", "Greedy then Round Robin", "128-cycle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
	if res.Summary["dram_to_link"] < 11.9 || res.Summary["dram_to_link"] > 12.1 {
		t.Fatal("DRAM:link ratio must be 12")
	}
}

func TestTable2Content(t *testing.T) {
	r := NewRunner(Options{})
	res := Table2(r)
	if res.Table.Rows() != 41 {
		t.Fatalf("Table 2 rows %d, want 41", res.Table.Rows())
	}
	if !strings.Contains(res.Table.String(), "241549") {
		t.Fatal("Table 2 must carry the paper CTA counts")
	}
}

func TestFigure8EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := quickRunner()
	res := Figure8(r)
	// RSBench + Hotspot are non-grey in the subset → 2 rows + 2 means.
	if res.Table.Rows() < 3 {
		t.Fatalf("Figure 8 rows %d", res.Table.Rows())
	}
	if res.Summary["numa_geomean"] <= 0 {
		t.Fatal("summary missing")
	}
}

func TestFigure11EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := quickRunner()
	res := Figure11(r)
	for _, k := range []string{"numa_2_geomean", "numa_4_geomean", "numa_8_geomean",
		"mono_2_geomean", "mono_4_geomean", "mono_8_geomean",
		"efficiency_2_pct", "efficiency_4_pct", "efficiency_8_pct"} {
		if res.Summary[k] <= 0 {
			t.Fatalf("summary %s missing", k)
		}
	}
	// Monolithic speedups must grow with size for these parallel
	// workloads.
	if res.Summary["mono_8_geomean"] < res.Summary["mono_2_geomean"] {
		t.Fatal("monolithic scaling inverted")
	}
}

func TestFigure5EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(Options{Divisor: 16, IterScale: 0.1, MaxCTAs: 96})
	res := Figure5(r)
	if res.Summary["kernels"] != 10 {
		t.Fatalf("HPGMG-UVM kernels %v, want 10", res.Summary["kernels"])
	}
	if res.Summary["windows"] <= 0 {
		t.Fatal("no profile windows recorded")
	}
	if res.Summary["mean_direction_asymmetry"] <= 0 {
		t.Fatal("profile shows no directional asymmetry; Figure 5's phenomenon is absent")
	}
}

// TestLinkUtilRejectsWrappedRing: a link series that wrapped its ring
// has lost the run's first windows, so Figure 5 must fail with an
// error naming the ring's size instead of rendering a truncated
// profile.
func TestLinkUtilRejectsWrappedRing(t *testing.T) {
	spec, _ := workload.ByName("HPC-HPGMG-UVM")
	cfg := arch.TestConfig()
	cfg.Obs = arch.ObsSpec{Series: true, SamplePeriod: 100, MaxSamples: 8}
	sys := core.MustSystem(cfg)
	sys.Run(spec.Program(workload.Options{IterScale: 0.1, MaxCTAs: 32}))
	if eg, _ := sys.Obs().LinkUtil(0); eg.Dropped() == 0 {
		t.Fatalf("run too short to wrap an 8-sample ring (%d samples)", eg.Len())
	}
	defer func() {
		err, ok := recover().(error)
		if !ok || !strings.Contains(err.Error(), "8-sample series ring") {
			t.Fatalf("linkUtil on a wrapped ring: got %v, want an error naming the 8-sample ring", err)
		}
	}()
	linkUtil(sys)
}

func TestLaneGranularityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := quickRunner()
	res := LaneGranularity(r)
	if res.Summary["lanes8_geomean"] <= 0 || res.Summary["lanes4_geomean"] <= 0 {
		t.Fatal("summary missing")
	}
}

func TestMultiTenancySmallWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var subset []workload.Spec
	for _, name := range []string{"Lonestar-SP", "Other-Bitcoin-Crypto", "Rodinia-Hotspot"} {
		s, _ := workload.ByName(name)
		subset = append(subset, s)
	}
	r := NewRunner(Options{Divisor: 16, IterScale: 0.1, MaxCTAs: 64, Workloads: subset})
	res := MultiTenancy(r)
	// SP (75 CTAs) and Bitcoin (60) qualify as small; Hotspot does not.
	if res.Summary["small_workloads"] != 2 {
		t.Fatalf("small workloads %v, want 2", res.Summary["small_workloads"])
	}
	if res.Summary["partition_delivers_geomean"] <= 0 {
		t.Fatal("summary missing")
	}
}

func TestRemainingFiguresEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := quickRunner()
	f3 := Figure3(r)
	if f3.Table.Rows() != len(r.opts.Workloads)+2 {
		t.Fatalf("Figure 3 rows %d", f3.Table.Rows())
	}
	if f3.Summary["mono4_geomean"] <= f3.Summary["traditional_geomean"] {
		t.Fatal("monolithic must beat traditional policies")
	}
	f6 := Figure6(r)
	if f6.Summary["bw2_geomean"] < 1 {
		t.Fatal("doubling bandwidth must not hurt")
	}
	f9 := Figure9(r)
	if f9.Summary["coherence_overhead_geomean"] < 0.99 {
		t.Fatalf("no-invalidate L2 should not lose: %v", f9.Summary)
	}
	f10 := Figure10(r)
	if f10.Summary["comb_geomean"] <= 0 {
		t.Fatal("Figure 10 summary missing")
	}
	st := SwitchTimeSensitivity(r)
	if st.Summary["turn_10_geomean"] <= 0 || st.Summary["turn_500_geomean"] <= 0 {
		t.Fatal("switch time summary missing")
	}
	wp := WritePolicy(r)
	if wp.Summary["wb_over_wt_geomean"] <= 0 {
		t.Fatal("write policy summary missing")
	}
	pw := Power(r)
	if pw.Summary["baseline_watts_geomean"] < 0 {
		t.Fatal("power summary missing")
	}
}
