package exp

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// baselineSMs approximates "today's biggest GPU" of Figure 2 (the paper
// cites NVIDIA Pascal's 56 SMs).
const baselineSMs = 56

// Figure2 reports the percentage of workloads whose time-weighted
// average CTA count can fill GPUs 1–8× larger than today's (Figure 2).
// It is a pure data computation over the Table 2 metadata.
func Figure2(r *Runner) Result {
	t := stats.NewTable("Figure 2: workloads able to fill future larger GPUs",
		"GPU size", "SMs", "Workloads filling", "Percent")
	sum := map[string]float64{}
	all := r.Options().Workloads
	for _, factor := range []int{1, 2, 4, 8} {
		sms := baselineSMs * factor
		n := 0
		for _, s := range all {
			if s.PaperCTAs >= sms {
				n++
			}
		}
		pct := 100 * float64(n) / float64(len(all))
		t.AddRowf(fmt.Sprintf("%dx", factor), sms, fmt.Sprintf("%d/%d", n, len(all)), pct)
		sum[fmt.Sprintf("fill_%dx_pct", factor)] = pct
	}
	return Result{Table: t, Summary: sum}
}

// Figure3 compares a 4-socket NUMA GPU under traditional single-GPU
// policies and under the locality-optimized runtime against a single
// GPU and the hypothetical 4× larger GPU (Figure 3). Rows are sorted by
// the locality-vs-theoretical gap, mirroring the paper's layout; the
// grey set is annotated.
func Figure3(r *Runner) Result {
	specs := r.Options().Workloads
	var reqs []RunRequest
	for _, spec := range specs {
		reqs = append(reqs,
			RunRequest{r.Base(1), spec},
			RunRequest{r.Traditional(4), spec},
			RunRequest{r.Base(4), spec},
			RunRequest{r.Monolithic(4), spec})
	}
	res := r.RunAll(reqs)
	type row struct {
		name            string
		trad, loc, mono float64
	}
	var rows []row
	for i, spec := range specs {
		single := res[4*i]
		rows = append(rows, row{
			name: spec.Name,
			trad: res[4*i+1].SpeedupOver(single),
			loc:  res[4*i+2].SpeedupOver(single),
			mono: res[4*i+3].SpeedupOver(single),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		return rows[i].mono-rows[i].loc > rows[j].mono-rows[j].loc
	})
	t := stats.NewTable("Figure 3: 4-socket NUMA GPU relative to a single GPU",
		"Workload", "Traditional", "Locality-Opt", "4x larger GPU", ">=99% SW-only")
	var trads, locs, monos []float64
	greyCount := 0
	for _, w := range rows {
		mark := ""
		if w.loc >= 0.99*w.mono {
			mark = "grey"
			greyCount++
		}
		t.AddRowf(w.name, w.trad, w.loc, w.mono, mark)
		trads = append(trads, w.trad)
		locs = append(locs, w.loc)
		monos = append(monos, w.mono)
	}
	t.AddRowf("ArithMean", stats.Mean(trads), stats.Mean(locs), stats.Mean(monos), "")
	t.AddRowf("GeoMean", stats.GeoMean(trads), stats.GeoMean(locs), stats.GeoMean(monos), "")
	return Result{Table: t, Summary: map[string]float64{
		"traditional_geomean": stats.GeoMean(trads),
		"locality_geomean":    stats.GeoMean(locs),
		"mono4_geomean":       stats.GeoMean(monos),
		"grey_count":          float64(greyCount),
	}}
}

// Figure5 records the per-GPU link utilization profile of HPC-HPGMG-UVM
// on the locality-optimized 4-socket baseline (Figure 5): asymmetric
// saturation between directions and across GPU sockets, with kernel
// launches marked. The profile is the observability layer's per-link
// egress_util/ingress_util series, sampled every 2,000 cycles. The
// observed run simulates on its own System outside the Runner: an
// observed Runner run would skip the cache and Options.Backend. When
// Options.Obs asks for observation, the run's collector goes to
// Options.ObsSink like any observed run's, with a trace if Options.Obs
// asks for one.
func Figure5(r *Runner) Result {
	spec, ok := workload.ByName("HPC-HPGMG-UVM")
	if !ok {
		panic("exp: HPC-HPGMG-UVM missing from workload table")
	}
	opts := r.Options()
	cfg := r.Base(4)
	observed := cfg
	observed.Obs = arch.ObsSpec{Series: true, SamplePeriod: 2000, Trace: opts.Obs.Trace}
	sys := core.MustSystem(observed)
	res := sys.Run(spec.Program(opts.workloadOptions()))
	if opts.Obs.Enabled() && opts.ObsSink != nil {
		opts.ObsSink(runKey(opts, cfg, spec), spec, sys.Obs())
	}
	links := linkUtil(sys)
	marks := sys.KernelLaunches()

	// One E/I column pair per physical link. On the synthesized
	// crossbar link i is socket i's port (the paper's per-GPU view);
	// an explicit topology labels columns by link name instead.
	cols := []string{"Window@cycle"}
	for i := range links {
		name := fmt.Sprintf("GPU%d", i)
		if cfg.Topology != nil {
			name = sys.Fabric().LinkAt(i).Name()
		}
		cols = append(cols, name+" E", name+" I")
	}
	cols = append(cols, "kernel")
	t := stats.NewTable("Figure 5: link utilization profile, HPC-HPGMG-UVM (locality-optimized 4-socket)",
		cols...)
	n := links[0][0].Len()
	mark := 0
	// Summaries: how asymmetric is each GPU's link use, and how
	// complementary are the sockets (the phenomenon Section 4 exploits).
	var asym []float64
	maxBuckets := 60
	stride := 1
	if n > maxBuckets {
		stride = n / maxBuckets
	}
	for i := 0; i < n; i++ {
		at := links[0][0].At(i).At
		km := ""
		for mark < len(marks) && marks[mark] <= at {
			km = "K"
			mark++
		}
		cells := []any{fmt.Sprintf("%d", at)}
		for _, l := range links {
			e, in := l[0].At(i).Value, l[1].At(i).Value
			cells = append(cells, e, in)
			if e+in > 0.2 {
				d := e - in
				if d < 0 {
					d = -d
				}
				asym = append(asym, d/maxF(e+in, 1e-9))
			}
		}
		cells = append(cells, km)
		if i%stride == 0 || km == "K" {
			t.AddRowf(cells...)
		}
	}
	return Result{Table: t, Summary: map[string]float64{
		"mean_direction_asymmetry": stats.Mean(asym),
		"windows":                  float64(n),
		"kernels":                  float64(len(marks)),
		"cycles":                   float64(res.Cycles),
	}}
}

// linkUtil returns the egress and ingress utilization series of every
// fabric link of an observed run. It fails when a series wrapped its
// ring, because the profile would then lack the run's first windows.
func linkUtil(sys *core.System) [][2]*obs.Series {
	col := sys.Obs()
	out := make([][2]*obs.Series, sys.Fabric().NumLinks())
	for i := range out {
		eg, in := col.LinkUtil(i)
		if eg.Dropped() > 0 || in.Dropped() > 0 {
			panic(fmt.Errorf("exp: the link profile has %d windows, more than the %d-sample series ring holds; lower the iteration scale",
				uint64(eg.Len())+eg.Dropped(), col.Spec().MaxSamples))
		}
		out[i] = [2]*obs.Series{eg, in}
	}
	return out
}

// Figure6 evaluates dynamic link adaptivity against sample time, with
// the doubled-bandwidth upper bound in red (Figure 6). Baseline is the
// locality-optimized 4-socket GPU with static symmetric links.
func Figure6(r *Runner) Result {
	sampleTimes := []int{1000, 5000, 20000}
	specs := r.evaluated()
	dblCfg := r.Base(4)
	dblCfg.LaneBandwidth *= 2
	var reqs []RunRequest
	for _, spec := range specs {
		reqs = append(reqs, RunRequest{r.Base(4), spec})
		for _, st := range sampleTimes {
			cfg := r.Base(4)
			cfg.LinkMode = arch.LinkDynamic
			cfg.LinkSampleTime = st
			reqs = append(reqs, RunRequest{cfg, spec})
		}
		reqs = append(reqs, RunRequest{dblCfg, spec})
	}
	res := r.RunAll(reqs)
	stride := len(sampleTimes) + 2 // base, one per sample time, 2x BW

	// Rows are ordered by the 2× bandwidth headroom, mirroring the
	// paper's most-to-least-link-bound layout.
	type scored struct {
		idx int
		bw2 float64
	}
	var sc []scored
	for i := range specs {
		base := res[stride*i]
		sc = append(sc, scored{i, res[stride*i+stride-1].SpeedupOver(base)})
	}
	sort.Slice(sc, func(i, j int) bool { return sc[i].bw2 > sc[j].bw2 })

	t := stats.NewTable("Figure 6: dynamic link adaptivity speedup over static links (4-socket)",
		"Workload", "Sample 1K", "Sample 5K", "Sample 20K", "2x Link BW")
	speeds := make(map[string][]float64)
	for _, s := range sc {
		base := res[stride*s.idx]
		row := []any{specs[s.idx].Name}
		for j, st := range sampleTimes {
			sp := res[stride*s.idx+1+j].SpeedupOver(base)
			key := fmt.Sprintf("sample_%d", st)
			speeds[key] = append(speeds[key], sp)
			row = append(row, sp)
		}
		speeds["bw2"] = append(speeds["bw2"], s.bw2)
		row = append(row, s.bw2)
		t.AddRowf(row...)
	}
	sum := map[string]float64{}
	means := []any{"GeoMean"}
	for _, st := range sampleTimes {
		k := fmt.Sprintf("sample_%d", st)
		g := stats.GeoMean(speeds[k])
		sum[k+"_geomean"] = g
		means = append(means, g)
	}
	sum["bw2_geomean"] = stats.GeoMean(speeds["bw2"])
	means = append(means, sum["bw2_geomean"])
	t.AddRowf(means...)
	return Result{Table: t, Summary: sum}
}

// SwitchTimeSensitivity reproduces the Section 4.1 sensitivity study:
// lane turn cost of 10, 100 and 500 cycles at the 5K sample time.
func SwitchTimeSensitivity(r *Runner) Result {
	turns := []int{10, 100, 500}
	specs := r.evaluated()
	var reqs []RunRequest
	for _, spec := range specs {
		reqs = append(reqs, RunRequest{r.Base(4), spec})
		for _, sw := range turns {
			cfg := r.Base(4)
			cfg.LinkMode = arch.LinkDynamic
			cfg.LaneSwitchTime = sw
			reqs = append(reqs, RunRequest{cfg, spec})
		}
	}
	res := r.RunAll(reqs)
	stride := len(turns) + 1

	t := stats.NewTable("Section 4.1: lane switch time sensitivity (speedup over static links)",
		"Workload", "Turn 10cy", "Turn 100cy", "Turn 500cy")
	speeds := make(map[int][]float64)
	for i, spec := range specs {
		base := res[stride*i]
		row := []any{spec.Name}
		for j, sw := range turns {
			sp := res[stride*i+1+j].SpeedupOver(base)
			speeds[sw] = append(speeds[sw], sp)
			row = append(row, sp)
		}
		t.AddRowf(row...)
	}
	sum := map[string]float64{}
	means := []any{"GeoMean"}
	for _, sw := range turns {
		g := stats.GeoMean(speeds[sw])
		sum[fmt.Sprintf("turn_%d_geomean", sw)] = g
		means = append(means, g)
	}
	t.AddRowf(means...)
	return Result{Table: t, Summary: sum}
}

// Figure8 compares the four L2 organizations of Figure 7 on the
// 4-socket locality baseline: memory-side local-only (baseline), static
// 50/50 partitioning, shared coherent L1+L2, and NUMA-aware dynamic
// partitioning (Figure 8).
func Figure8(r *Runner) Result {
	modes := []arch.CacheMode{arch.CacheStaticPartition, arch.CacheSharedCoherent, arch.CacheNUMAAware}
	specs := r.evaluated()
	var reqs []RunRequest
	for _, spec := range specs {
		reqs = append(reqs, RunRequest{r.Base(4), spec})
		for _, m := range modes {
			cfg := r.Base(4)
			cfg.CacheMode = m
			reqs = append(reqs, RunRequest{cfg, spec})
		}
	}
	res := r.RunAll(reqs)
	stride := len(modes) + 1
	numaOff := stride - 1 // NUMA-aware is the last mode

	// Rows ordered by the NUMA-aware gain, largest first.
	type scored struct {
		idx  int
		gain float64
	}
	var sc []scored
	for i := range specs {
		base := res[stride*i]
		sc = append(sc, scored{i, res[stride*i+numaOff].SpeedupOver(base)})
	}
	sort.Slice(sc, func(i, j int) bool { return sc[i].gain > sc[j].gain })

	t := stats.NewTable("Figure 8: cache organizations, speedup over memory-side local-only L2 (4-socket)",
		"Workload", "Static 50/50", "Shared Coherent", "NUMA-aware")
	speeds := make(map[arch.CacheMode][]float64)
	for _, s := range sc {
		base := res[stride*s.idx]
		row := []any{specs[s.idx].Name}
		for j, m := range modes {
			sp := res[stride*s.idx+1+j].SpeedupOver(base)
			speeds[m] = append(speeds[m], sp)
			row = append(row, sp)
		}
		t.AddRowf(row...)
	}
	sum := map[string]float64{
		"static_geomean": stats.GeoMean(speeds[arch.CacheStaticPartition]),
		"shared_geomean": stats.GeoMean(speeds[arch.CacheSharedCoherent]),
		"numa_geomean":   stats.GeoMean(speeds[arch.CacheNUMAAware]),
		"static_mean":    stats.Mean(speeds[arch.CacheStaticPartition]),
		"shared_mean":    stats.Mean(speeds[arch.CacheSharedCoherent]),
		"numa_mean":      stats.Mean(speeds[arch.CacheNUMAAware]),
	}
	t.AddRowf("ArithMean", sum["static_mean"], sum["shared_mean"], sum["numa_mean"])
	t.AddRowf("GeoMean", sum["static_geomean"], sum["shared_geomean"], sum["numa_geomean"])
	return Result{Table: t, Summary: sum}
}

// Figure9 measures the cost of extending software coherence into the
// L2: the NUMA-aware configuration against a hypothetical L2 that can
// ignore invalidation events (Figure 9; paper average ≈10%).
func Figure9(r *Runner) Result {
	specs := r.evaluated()
	var reqs []RunRequest
	for _, spec := range specs {
		cfg := r.NUMAAware(4)
		hyp := cfg
		hyp.NoL2Invalidate = true
		reqs = append(reqs, RunRequest{cfg, spec}, RunRequest{hyp, spec})
	}
	res := r.RunAll(reqs)

	t := stats.NewTable("Figure 9: overhead of SW coherence invalidations in the L2 (4-socket NUMA-aware)",
		"Workload", "Slowdown vs no-invalidate L2")
	var overheads []float64
	for i, spec := range specs {
		real := res[2*i]
		ideal := res[2*i+1]
		ov := float64(real.Cycles) / float64(maxU64(ideal.Cycles, 1))
		overheads = append(overheads, ov)
		t.AddRowf(spec.Name, ov)
	}
	g := stats.GeoMean(overheads)
	t.AddRowf("GeoMean", g)
	return Result{Table: t, Summary: map[string]float64{
		"coherence_overhead_geomean": g,
		"coherence_overhead_pct":     (g - 1) * 100,
	}}
}

// WritePolicy reproduces the Section 5.2 sensitivity: write-back versus
// write-through coherent L2 (paper: WB wins by ≈9% from reduced
// inter-GPU write bandwidth).
func WritePolicy(r *Runner) Result {
	specs := r.evaluated()
	var reqs []RunRequest
	for _, spec := range specs {
		wtCfg := r.NUMAAware(4)
		wtCfg.L2WriteThrough = true
		reqs = append(reqs, RunRequest{r.NUMAAware(4), spec}, RunRequest{wtCfg, spec})
	}
	res := r.RunAll(reqs)

	t := stats.NewTable("Section 5.2: write-back vs write-through coherent L2 (4-socket NUMA-aware)",
		"Workload", "WB speedup over WT", "WT link bytes / WB link bytes")
	var speeds, traffic []float64
	for i, spec := range specs {
		wb, wt := res[2*i], res[2*i+1]
		sp := wb.SpeedupOver(wt)
		speeds = append(speeds, sp)
		tr := float64(wt.LinkBytes) / maxF(float64(wb.LinkBytes), 1)
		traffic = append(traffic, tr)
		t.AddRowf(spec.Name, sp, tr)
	}
	g := stats.GeoMean(speeds)
	t.AddRowf("GeoMean", g, stats.GeoMean(traffic))
	return Result{Table: t, Summary: map[string]float64{
		"wb_over_wt_geomean": g,
		"wb_gain_pct":        (g - 1) * 100,
	}}
}

// Figure10 shows the combined effect of both mechanisms versus each in
// isolation, against the single GPU and the 4× larger GPU (Figure 10).
func Figure10(r *Runner) Result {
	specs := r.evaluated()
	linkOnly := r.Base(4)
	linkOnly.LinkMode = arch.LinkDynamic
	cacheOnly := r.Base(4)
	cacheOnly.CacheMode = arch.CacheNUMAAware
	var reqs []RunRequest
	for _, spec := range specs {
		reqs = append(reqs,
			RunRequest{r.Base(1), spec},
			RunRequest{r.Base(4), spec},
			RunRequest{linkOnly, spec},
			RunRequest{cacheOnly, spec},
			RunRequest{r.NUMAAware(4), spec},
			RunRequest{r.Monolithic(4), spec})
	}
	res := r.RunAll(reqs)
	const stride = 6

	t := stats.NewTable("Figure 10: combined NUMA-aware GPU vs single GPU (4-socket)",
		"Workload", "SW baseline", "+Dynamic links", "+NUMA caches", "Combined", "4x larger GPU")
	agg := make(map[string][]float64)
	for i, spec := range specs {
		single := res[stride*i]
		vals := map[string]float64{
			"base":  res[stride*i+1].SpeedupOver(single),
			"link":  res[stride*i+2].SpeedupOver(single),
			"cache": res[stride*i+3].SpeedupOver(single),
			"comb":  res[stride*i+4].SpeedupOver(single),
			"mono":  res[stride*i+5].SpeedupOver(single),
		}
		for k, v := range vals {
			agg[k] = append(agg[k], v)
		}
		t.AddRowf(spec.Name, vals["base"], vals["link"], vals["cache"], vals["comb"], vals["mono"])
	}
	sum := map[string]float64{}
	for k, vs := range agg {
		sum[k+"_geomean"] = stats.GeoMean(vs)
		sum[k+"_mean"] = stats.Mean(vs)
	}
	sum["combined_over_baseline_pct"] = (sum["comb_geomean"]/sum["base_geomean"] - 1) * 100
	t.AddRowf("ArithMean", sum["base_mean"], sum["link_mean"], sum["cache_mean"], sum["comb_mean"], sum["mono_mean"])
	t.AddRowf("GeoMean", sum["base_geomean"], sum["link_geomean"], sum["cache_geomean"], sum["comb_geomean"], sum["mono_geomean"])
	return Result{Table: t, Summary: sum}
}

// Figure11 is the headline scalability result: the full NUMA-aware GPU
// at 2, 4 and 8 sockets against hypothetical 2×, 4× and 8× larger
// single GPUs, over all 41 workloads (Figure 11; paper: 1.5×/2.3×/3.2×
// at 89%/84%/76% efficiency).
func Figure11(r *Runner) Result {
	sockets := []int{2, 4, 8}
	specs := r.Options().Workloads
	var reqs []RunRequest
	for _, spec := range specs {
		reqs = append(reqs, RunRequest{r.Base(1), spec})
		for _, n := range sockets {
			reqs = append(reqs, RunRequest{r.NUMAAware(n), spec})
		}
		for _, n := range sockets {
			reqs = append(reqs, RunRequest{r.Monolithic(n), spec})
		}
	}
	res := r.RunAll(reqs)
	stride := 1 + 2*len(sockets)

	t := stats.NewTable("Figure 11: NUMA-aware GPU scalability vs hypothetical larger single GPUs",
		"Workload", "2-socket", "4-socket", "8-socket", "2x GPU", "4x GPU", "8x GPU")
	numa := map[int][]float64{}
	mono := map[int][]float64{}
	for i, spec := range specs {
		single := res[stride*i]
		row := []any{spec.Name}
		for j, n := range sockets {
			sp := res[stride*i+1+j].SpeedupOver(single)
			numa[n] = append(numa[n], sp)
			row = append(row, sp)
		}
		for j, n := range sockets {
			sp := res[stride*i+1+len(sockets)+j].SpeedupOver(single)
			mono[n] = append(mono[n], sp)
			row = append(row, sp)
		}
		t.AddRowf(row...)
	}
	sum := map[string]float64{}
	gRow := []any{"GeoMean"}
	for _, n := range sockets {
		sum[fmt.Sprintf("numa_%d_geomean", n)] = stats.GeoMean(numa[n])
		gRow = append(gRow, stats.GeoMean(numa[n]))
	}
	for _, n := range sockets {
		sum[fmt.Sprintf("mono_%d_geomean", n)] = stats.GeoMean(mono[n])
		gRow = append(gRow, stats.GeoMean(mono[n]))
	}
	for _, n := range sockets {
		sum[fmt.Sprintf("efficiency_%d_pct", n)] =
			100 * sum[fmt.Sprintf("numa_%d_geomean", n)] / sum[fmt.Sprintf("mono_%d_geomean", n)]
	}
	t.AddRowf(gRow...)
	return Result{Table: t, Summary: sum}
}

// Power reproduces the Section 6 estimate: average interconnect power
// at 10pJ/b for the software baseline versus the full NUMA-aware GPU,
// reported at paper-scale link widths (utilization-preserving scaling
// by the architecture divisor).
func Power(r *Runner) Result {
	specs := r.Options().Workloads
	var reqs []RunRequest
	for _, spec := range specs {
		reqs = append(reqs, RunRequest{r.Base(4), spec}, RunRequest{r.NUMAAware(4), spec})
	}
	res := r.RunAll(reqs)

	t := stats.NewTable("Section 6: interconnect power at 10pJ/b (4-socket, paper-scale watts)",
		"Workload", "Baseline W", "NUMA-aware W")
	var baseW, numaW []float64
	scale := float64(r.Options().Divisor)
	for i, spec := range specs {
		bw := res[2*i].InterconnectPower() * scale
		nw := res[2*i+1].InterconnectPower() * scale
		baseW = append(baseW, bw)
		numaW = append(numaW, nw)
		t.AddRowf(spec.Name, bw, nw)
	}
	sum := map[string]float64{
		"baseline_watts_geomean": stats.GeoMean(baseW),
		"numa_watts_geomean":     stats.GeoMean(numaW),
		"baseline_watts_max":     maxSlice(baseW),
		"numa_watts_max":         maxSlice(numaW),
	}
	t.AddRowf("GeoMean", sum["baseline_watts_geomean"], sum["numa_watts_geomean"])
	return Result{Table: t, Summary: sum}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func maxSlice(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// LaneGranularity is an ablation beyond the paper's studies (motivated
// by its Section 4 discussion): the same total link bandwidth built
// from 4 coarser lanes instead of 8, halving the balancer's
// reconfiguration resolution.
func LaneGranularity(r *Runner) Result {
	specs := r.evaluated()
	fine8 := r.Base(4)
	fine8.LinkMode = arch.LinkDynamic
	coarse4 := fine8
	coarse4.LanesPerDir = 4
	coarse4.LaneBandwidth *= 2
	var reqs []RunRequest
	for _, spec := range specs {
		reqs = append(reqs,
			RunRequest{r.Base(4), spec},
			RunRequest{fine8, spec},
			RunRequest{coarse4, spec})
	}
	res := r.RunAll(reqs)

	t := stats.NewTable("Ablation: lane granularity under dynamic balancing (speedup over static links)",
		"Workload", "8 lanes x 1/8 BW", "4 lanes x 1/4 BW")
	fine := make([]float64, 0, 32)
	coarse := make([]float64, 0, 32)
	for i, spec := range specs {
		base := res[3*i]
		sp8 := res[3*i+1].SpeedupOver(base)
		sp4 := res[3*i+2].SpeedupOver(base)
		fine = append(fine, sp8)
		coarse = append(coarse, sp4)
		t.AddRowf(spec.Name, sp8, sp4)
	}
	sum := map[string]float64{
		"lanes8_geomean": stats.GeoMean(fine),
		"lanes4_geomean": stats.GeoMean(coarse),
	}
	t.AddRowf("GeoMean", sum["lanes8_geomean"], sum["lanes4_geomean"])
	return Result{Table: t, Summary: sum}
}

// MultiTenancy supports the Section 6 discussion: workloads that cannot
// fill a large NUMA GPU are better served by partitioning it along
// NUMA boundaries. For the small-grid workloads it compares the full
// 4-socket NUMA-aware GPU against a single dedicated socket (a 1/4
// partition), reporting how much of the big machine's performance one
// quarter of it already delivers.
func MultiTenancy(r *Runner) Result {
	var specs []workload.Spec
	for _, spec := range r.Options().Workloads {
		// "Small": the paper's own Figure 2 threshold — grids that
		// cannot fill even today's single GPU at 2×.
		if spec.PaperCTAs < 2*baselineSMs {
			specs = append(specs, spec)
		}
	}
	var reqs []RunRequest
	for _, spec := range specs {
		reqs = append(reqs, RunRequest{r.Base(1), spec}, RunRequest{r.NUMAAware(4), spec})
	}
	res := r.RunAll(reqs)

	t := stats.NewTable("Section 6: small workloads on a partitioned vs whole NUMA GPU",
		"Workload", "Paper CTAs", "4-socket speedup vs 1 socket", "1/4 partition delivers")
	var fractions []float64
	for i, spec := range specs {
		sp := res[2*i+1].SpeedupOver(res[2*i])
		frac := 1 / sp
		fractions = append(fractions, frac)
		t.AddRowf(spec.Name, spec.PaperCTAs, sp, frac)
	}
	sum := map[string]float64{
		"partition_delivers_geomean": stats.GeoMean(fractions),
		"small_workloads":            float64(len(fractions)),
	}
	t.AddRowf("GeoMean", "", "", sum["partition_delivers_geomean"])
	return Result{Table: t, Summary: sum}
}
