package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/workload"
)

// figuresSetupReps is how many times set-up is repeated for the
// setup_s median; set-up takes microseconds, so many repetitions keep
// the median steady.
const figuresSetupReps = 201

// errNoRuns reports a regeneration that ran no simulation at all.
var errNoRuns = errors.New("no simulation ran")

// ledgerBand bounds the share of the process's CPU time over the
// traced pass that the run, harness-self and render spans may leave
// unexplained, either way. Spans count wall time, so time the host
// keeps a run off its CPU makes the remainder negative: three traced
// runs read −1.3%, −1.6% and −3.0% (README.md), and the band leaves
// room for a host about three times as busy.
const ledgerBand = 0.10

// pass is one regeneration of every experiment on a fresh Runner.
type pass struct {
	runner    *exp.Runner
	wall      time.Duration
	rendered  []byte
	summaries map[string]map[string]float64
	latency   []float64     // per experiment, ms: start to rendered
	first     time.Duration // regeneration start to the first rendered experiment that simulated
	failed    int

	mu        sync.Mutex
	results   map[string]core.Result // every unique run, by run key
	current   string                 // experiment being regenerated
	simulated bool                   // whether it completed a new run
}

// newPass builds the harness exactly as `numagpu -quick all` does
// before its first experiment: the quick options at the default
// parallelism and one cold Runner. A traced pass routes every unique
// run through a benchmark-side Backend that times the layers.
func newPass(tr *tracer, sockets map[string]int) *pass {
	p := &pass{results: map[string]core.Result{}, summaries: map[string]map[string]float64{}}
	opts := exp.QuickOptions()
	opts.OnResult = func(key string, res core.Result, _ exp.RunSource) {
		p.mu.Lock()
		p.results[key] = res
		p.simulated = true
		p.mu.Unlock()
	}
	if tr != nil {
		opts.Backend = &tracedBackend{tr: tr, pass: p, sockets: sockets}
	}
	p.runner = exp.NewRunner(opts)
	return p
}

// regenerate runs and renders every experiment in registry order.
func (p *pass) regenerate(tr *tracer) {
	start := time.Now()
	for _, e := range exp.Experiments() {
		t0 := time.Now()
		p.mu.Lock()
		p.current, p.simulated = e.Name, false
		p.mu.Unlock()
		res, ok := runExperiment(e, p.runner)
		t1 := time.Now()
		if !ok {
			p.failed++
			continue
		}
		p.rendered = append(p.rendered, exp.RenderGolden(res)...)
		t2 := time.Now()
		tr.add(span{name: "experiment", id: e.Name, start: t0, end: t1})
		tr.add(span{name: "render", id: e.Name, parent: e.Name, start: t1, end: t2})
		p.summaries[e.Name] = res.Summary
		p.latency = append(p.latency, ms(t2.Sub(t0)))
		p.mu.Lock()
		if p.simulated && p.first == 0 {
			p.first = t2.Sub(start)
		}
		p.mu.Unlock()
	}
	p.wall = time.Since(start)
}

// runExperiment runs one experiment, reporting a panicking run as a
// failed operation.
func runExperiment(e exp.Experiment, r *exp.Runner) (res exp.Result, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return e.Run(r), true
}

// tracedBackend executes each unique run the way the Runner's local
// path does — Spec.Program, core.NewSystem, System.Run — timing each
// call and reading the engine's event count afterwards.
type tracedBackend struct {
	tr      *tracer
	pass    *pass
	mu      sync.Mutex
	sockets map[string]int // run key → socket count
}

func (b *tracedBackend) Execute(key string, cfg arch.Config, spec workload.Spec, opts workload.Options) (core.Result, error) {
	b.pass.mu.Lock()
	parent := b.pass.current
	b.pass.mu.Unlock()
	t0 := time.Now()
	prog := spec.Program(opts)
	t1 := time.Now()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	t2 := time.Now()
	res := sys.Run(prog)
	t3 := time.Now()
	events := sys.Engine().Executed()
	b.tr.add(span{name: "run", id: key, parent: parent, start: t0, end: t3, count: events})
	b.tr.add(span{name: "workload.Program", id: key, parent: "run", start: t0, end: t1})
	b.tr.add(span{name: "core.NewSystem", id: key, parent: "run", start: t1, end: t2})
	b.tr.add(span{name: "core.Run", id: key, parent: "run", start: t2, end: t3, count: events})
	b.mu.Lock()
	b.sockets[key] = cfg.Sockets
	b.mu.Unlock()
	return res, nil
}

func runFigures(c runConfig) (*report, error) {
	rep := newReport()
	var setups []float64
	var p *pass
	for i := 0; i < figuresSetupReps; i++ {
		t := time.Now()
		p = newPass(nil, nil)
		setups = append(setups, time.Since(t).Seconds())
	}

	// Timed phase: whole regenerations until --seconds have passed.
	passes := []*pass{p}
	deadline := time.Now().Add(c.seconds)
	for {
		p.regenerate(nil)
		if time.Now().After(deadline) {
			break
		}
		p = newPass(nil, nil)
		passes = append(passes, p)
	}

	var walls, rates, latency, first []float64
	for _, p := range passes {
		rep.attempted += len(exp.Experiments())
		rep.failed += p.failed
		checkFigures(rep, p, nil)
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(instructions(p.results))/p.wall.Seconds()/1e6)
		latency = append(latency, p.latency...)
		first = append(first, ms(p.first))
		if !bytes.Equal(p.rendered, passes[0].rendered) {
			rep.problem("regeneration %d rendered different bytes than the first", len(walls))
		}
	}
	if len(passes[0].results) == 0 {
		return nil, errNoRuns
	}
	_, agree := score(passes[0].summaries)
	wall := median(walls)
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["wall_s"] = wall
	rep.e2e["sim_minstr_per_s"] = median(rates)
	rep.e2e["paper_agreement"] = agree
	rep.e2e["sweeps_per_s"] = float64(len(latency)) / sum(walls)
	rep.e2e["sweep_p50_ms"] = median(latency)
	rep.e2e["sweep_tail_ms"] = percentile(latency, 1) // fewer than forty samples: the slowest one
	rep.e2e["first_result_p50_ms"] = median(first)
	fmt.Fprintf(c.stderr, "figures: %d regeneration(s), wall %.3fs, %d unique runs, %d experiments\n",
		len(passes), wall, len(passes[0].results), len(passes[0].latency))

	if c.traced {
		if err := traceFigures(c, rep, passes[0]); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// traceFigures regenerates once more with every unique run routed
// through the timing Backend, proves the rendering byte-identical to
// the untraced one, closes the cost ledger and fills the per-layer
// metrics.
func traceFigures(c runConfig, rep *report, untraced *pass) error {
	tr := &tracer{}
	sockets := map[string]int{}
	p := newPass(tr, sockets)
	cpu0 := cpuTime()
	p.regenerate(tr)
	cpu := cpuTime() - cpu0
	rep.attempted += len(exp.Experiments())
	rep.failed += p.failed
	checkFigures(rep, p, sockets)
	if !bytes.Equal(p.rendered, untraced.rendered) {
		rep.problem("traced regeneration rendered different bytes than the untraced one")
	}

	par := p.runner.Options().Parallelism
	runs := tr.named("run")
	var prog, build, simRun time.Duration
	var events uint64
	for _, s := range tr.named("workload.Program") {
		prog += s.end.Sub(s.start)
	}
	for _, s := range tr.named("core.NewSystem") {
		build += s.end.Sub(s.start)
	}
	for _, s := range tr.named("core.Run") {
		simRun += s.end.Sub(s.start)
		events += s.count
	}
	var expSum, renderSum, self, idle time.Duration
	for _, e := range tr.named("experiment") {
		span := e.end.Sub(e.start)
		expSum += span
		var inside []interval
		var runSum time.Duration
		for _, r := range runs {
			if r.parent == e.id {
				inside = append(inside, r.interval())
				runSum += r.end.Sub(r.start)
			}
		}
		self += selfTime(e.interval(), inside)
		// Pool idle is defined by parallelism × span = Σ run spans +
		// pool idle, so what can fail here is idle < 0 or more than
		// par runs at once.
		pool := time.Duration(par)*span - runSum
		idle += pool
		if pool < -time.Millisecond {
			rep.problem("ledger: %s ran %.3fs of runs in %.3fs at parallelism %d", e.id, runSum.Seconds(), span.Seconds(), par)
		}
		if n := maxConcurrency(inside); n > par {
			rep.problem("ledger: %s had %d runs in flight at parallelism %d", e.id, n, par)
		}
	}
	for _, s := range tr.named("render") {
		renderSum += s.end.Sub(s.start)
	}
	traced := expSum + renderSum
	fmt.Fprintf(c.stderr, "figures: untraced wall %.3fs; traced experiments %.3fs + render %.3fs = %.3fs (traced wall %.3fs); tracing overhead %+.3fs (%+.2f%%)\n",
		untraced.wall.Seconds(), expSum.Seconds(), renderSum.Seconds(), traced.Seconds(), p.wall.Seconds(),
		(traced - untraced.wall).Seconds(), 100*(traced-untraced.wall).Seconds()/untraced.wall.Seconds())

	// The ledger closes against the kernel's count of the process's
	// CPU time over the traced pass. Each run span keeps one CPU busy,
	// and so does the harness whenever no run is in flight and while it
	// renders; together they should account for that CPU time.
	accounted := sumSpans(runs) + self + renderSum
	rest := cpu - accounted
	fmt.Fprintf(c.stderr, "figures ledger: CPU %.3fs = run spans %.3fs + harness self %.3fs + render %.3fs + unexplained %+.3fs (%+.2f%%; band ±%.0f%%)\n",
		cpu.Seconds(), sumSpans(runs).Seconds(), self.Seconds(), renderSum.Seconds(), rest.Seconds(), 100*rest.Seconds()/cpu.Seconds(), 100*ledgerBand)
	fmt.Fprintf(c.stderr, "figures ledger: run spans %.3fs = program %.3fs + build %.3fs + run %.3fs + backend %.4fs; pool idle %.3fs\n",
		sumSpans(runs).Seconds(), prog.Seconds(), build.Seconds(), simRun.Seconds(),
		(sumSpans(runs) - prog - build - simRun).Seconds(), idle.Seconds())
	if cpu <= 0 || math.Abs(rest.Seconds()) > ledgerBand*cpu.Seconds() {
		rep.problem("ledger: run, harness and render spans leave %+.3fs of %.3fs CPU unexplained, outside the ±%.0f%% band", rest.Seconds(), cpu.Seconds(), 100*ledgerBand)
	}
	if len(runs) != len(p.results) {
		rep.problem("traced %d runs through the Backend but the Runner completed %d unique runs", len(runs), len(p.results))
	}

	l := rep.layer
	l["workload.program_s"] = prog.Seconds()
	l["core.build_s"] = build.Seconds()
	l["core.run_s"] = simRun.Seconds()
	l["sim.events"] = float64(events)
	if events > 0 {
		l["sim.ns_per_event"] = float64(simRun.Nanoseconds()) / float64(events)
	}
	l["exp.simulations"] = float64(len(runs))
	l["exp.self_s"] = self.Seconds()
	l["exp.pool_idle_s"] = idle.Seconds()
	l["stats.render_s"] = renderSum.Seconds()
	modelStats(l, p.results)
	per, _ := score(p.summaries)
	for id, a := range per {
		l["exp.agree."+id] = a
	}
	return tr.write(filepath.Join(c.workdir, "perfbench-trace", fmt.Sprintf("figures-seed%d.json", c.seed)))
}

func sumSpans(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.end.Sub(s.start)
	}
	return d
}

// sortedKeys returns the run keys in a fixed order, so that float sums
// over them repeat bit for bit.
func sortedKeys(results map[string]core.Result) []string {
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func instructions(results map[string]core.Result) uint64 {
	var n uint64
	for _, r := range results {
		n += r.Instructions
	}
	return n
}

// modelStats aggregates the simulated statistics of every unique run.
// They are deterministic: a change that only speeds the simulator up
// leaves each of them identical.
func modelStats(l map[string]float64, results map[string]core.Result) {
	var cycles, instr, flush, dram, link, turns uint64
	var l1, l2l, l2r, remote []float64
	for _, k := range sortedKeys(results) {
		r := results[k]
		cycles += r.Cycles
		instr += r.Instructions
		flush += r.FlushLines
		dram += r.DRAMBytes
		link += r.LinkBytes
		turns += r.LaneTurns
		l1 = append(l1, r.L1HitRate)
		l2l = append(l2l, r.L2LocalHitRate)
		remote = append(remote, r.RemoteAccessFraction)
		if r.RemoteAccessFraction > 0 {
			l2r = append(l2r, r.L2RemoteHitRate)
		}
	}
	l["core.sim_cycles"] = float64(cycles)
	if cycles > 0 {
		l["smcore.ipc"] = float64(instr) / float64(cycles)
	}
	l["gpu.l1_hit_rate"] = mean(l1)
	l["gpu.l2_local_hit_rate"] = mean(l2l)
	l["gpu.l2_remote_hit_rate"] = mean(l2r)
	l["gpu.flush_lines"] = float64(flush)
	l["mem.dram_bytes"] = float64(dram)
	l["vmm.remote_access_ratio"] = mean(remote)
	l["xlink.link_bytes"] = float64(link)
	l["xlink.lane_turns"] = float64(turns)
}

// derivedCounts is the warp-instruction, load and store count of one
// workload at opts, derived from its Spec alone: every warp of every
// CTA of every kernel issues one instruction per memory operation kind
// per iteration (a load step when the phase reads, a store step when
// it writes, one compute-only step when it does neither). Iterations
// scale by IterScale and are floored at 2, or at 4 for a repeated
// phase.
func derivedCounts(s workload.Spec, o workload.Options) (instr, loads, stores uint64) {
	scale := o.IterScale
	if scale <= 0 {
		scale = 1
	}
	phases := s.Phases
	if len(phases) == 0 {
		phases = []workload.Phase{{}}
	}
	pick := func(v, dflt int) int {
		if v != 0 {
			return v
		}
		return dflt
	}
	for _, ph := range phases {
		repeat := max(ph.Repeat, 1)
		ctas := pick(ph.CTAs, s.CTAs)
		if o.MaxCTAs > 0 && ctas > o.MaxCTAs {
			ctas = o.MaxCTAs
		}
		ctas = max(ctas, 1)
		warps := max(pick(ph.Warps, s.Warps), 1)
		floor := 2
		if repeat > 1 {
			floor = 4
		}
		iters := max(int(float64(pick(ph.Iters, s.Iters))*scale), floor)
		n := uint64(repeat) * uint64(ctas) * uint64(warps) * uint64(iters)
		reads := ph.LocalLines+ph.HaloLines+ph.SharedLines > 0
		writes := ph.StoreLines > 0
		if reads {
			loads += n
			instr += n
		}
		if writes {
			stores += n
			instr += n
		}
		if !reads && !writes {
			instr += n
		}
	}
	return instr, loads, stores
}

// checkFigures checks one regeneration's outputs against what the
// benchmark derives on its own: counts from the workload specs, model
// properties, and the figure summaries recomputed from raw cycles.
// sockets (run key → socket count, from the traced Backend) extends
// the single-socket check to every single-socket run; without it the
// check covers the one-GPU and monolithic configurations.
func checkFigures(rep *report, p *pass, sockets map[string]int) {
	r := p.runner
	wopts := workload.Options{IterScale: r.Options().IterScale, MaxCTAs: r.Options().MaxCTAs}
	specs := map[string]workload.Spec{}
	for _, s := range r.Options().Workloads {
		specs[s.Name] = s
	}
	type counts struct{ instr, loads, stores uint64 }
	seen := map[string]counts{}
	for _, key := range sortedKeys(p.results) {
		res := p.results[key]
		spec, ok := specs[res.Name]
		if !ok {
			rep.problem("run %s names unknown workload %q", key, res.Name)
			continue
		}
		i, l, s := derivedCounts(spec, wopts)
		if res.Instructions != i || res.Loads != l || res.Stores != s {
			rep.problem("%s: issued %d instructions, %d loads, %d stores; the spec gives %d, %d, %d (run %s)",
				res.Name, res.Instructions, res.Loads, res.Stores, i, l, s, key)
		}
		got := counts{res.Instructions, res.Loads, res.Stores}
		if prev, ok := seen[res.Name]; ok && prev != got {
			rep.problem("%s: instruction, load and store counts differ between configurations", res.Name)
		}
		seen[res.Name] = got
	}

	single := map[string]bool{}
	for _, spec := range r.Options().Workloads {
		single[r.RunKey(r.Base(1), spec)] = true
		for _, f := range []int{2, 4, 8} {
			single[r.RunKey(r.Monolithic(f), spec)] = true
		}
	}
	for key, n := range sockets {
		if n == 1 {
			single[key] = true
		} else if single[key] {
			rep.problem("run %s has %d sockets but was expected to have one", key, n)
		}
	}
	for key := range single {
		res, ok := p.results[key]
		if ok && (res.LinkBytes != 0 || res.LaneTurns != 0 || res.RemoteAccessFraction != 0) {
			rep.problem("%s: single-socket run moved %d link bytes with remote fraction %g", res.Name, res.LinkBytes, res.RemoteAccessFraction)
		}
	}
	checkGeomeans(rep, p)
}

// checkGeomeans recomputes every *_geomean summary of fig3, fig8,
// fig10 and fig11 from the raw cycles of the runs each figure is made
// of, and compares them with what the figure reported.
func checkGeomeans(rep *report, p *pass) {
	r := p.runner
	all := r.Options().Workloads
	var evaluated []workload.Spec
	for _, s := range all {
		if !s.Grey {
			evaluated = append(evaluated, s)
		}
	}
	cycles := func(cfg arch.Config, spec workload.Spec) float64 {
		res, ok := p.results[r.RunKey(cfg, spec)]
		if !ok {
			rep.problem("no run of %s under %s", spec.Name, r.RunKey(cfg, spec))
			return math.NaN()
		}
		return float64(res.Cycles)
	}
	// speedups is the geomean over specs of base cycles / cfg cycles.
	speedups := func(specs []workload.Spec, base, cfg arch.Config) float64 {
		var xs []float64
		for _, s := range specs {
			xs = append(xs, cycles(base, s)/cycles(cfg, s))
		}
		return geomean(xs)
	}
	with := func(c arch.Config, edit func(*arch.Config)) arch.Config {
		edit(&c)
		return c
	}
	want := map[string]map[string]float64{
		"fig3": {
			"traditional_geomean": speedups(all, r.Base(1), r.Traditional(4)),
			"locality_geomean":    speedups(all, r.Base(1), r.Base(4)),
			"mono4_geomean":       speedups(all, r.Base(1), r.Monolithic(4)),
		},
		"fig8": {
			"static_geomean": speedups(evaluated, r.Base(4), with(r.Base(4), func(c *arch.Config) { c.CacheMode = arch.CacheStaticPartition })),
			"shared_geomean": speedups(evaluated, r.Base(4), with(r.Base(4), func(c *arch.Config) { c.CacheMode = arch.CacheSharedCoherent })),
			"numa_geomean":   speedups(evaluated, r.Base(4), with(r.Base(4), func(c *arch.Config) { c.CacheMode = arch.CacheNUMAAware })),
		},
		"fig10": {
			"base_geomean":  speedups(evaluated, r.Base(1), r.Base(4)),
			"link_geomean":  speedups(evaluated, r.Base(1), with(r.Base(4), func(c *arch.Config) { c.LinkMode = arch.LinkDynamic })),
			"cache_geomean": speedups(evaluated, r.Base(1), with(r.Base(4), func(c *arch.Config) { c.CacheMode = arch.CacheNUMAAware })),
			"comb_geomean":  speedups(evaluated, r.Base(1), r.NUMAAware(4)),
			"mono_geomean":  speedups(evaluated, r.Base(1), r.Monolithic(4)),
		},
		"fig11": {},
	}
	for _, n := range []int{2, 4, 8} {
		want["fig11"][fmt.Sprintf("numa_%d_geomean", n)] = speedups(all, r.Base(1), r.NUMAAware(n))
		want["fig11"][fmt.Sprintf("mono_%d_geomean", n)] = speedups(all, r.Base(1), r.Monolithic(n))
	}
	for fig, keys := range want {
		got, ok := p.summaries[fig]
		if !ok {
			rep.problem("%s produced no summary", fig)
			continue
		}
		for k, v := range keys {
			if g := got[k]; math.IsNaN(v) || math.Abs(g-v) > 1e-9*math.Abs(v) {
				rep.problem("%s %s = %.12g, recomputed from raw cycles %.12g", fig, k, g, v)
			}
		}
		for k := range got {
			if _, ok := keys[k]; !ok && len(k) > 8 && k[len(k)-8:] == "_geomean" {
				rep.problem("%s reports %s, which the benchmark does not recompute", fig, k)
			}
		}
	}
}
