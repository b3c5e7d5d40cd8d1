package main

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/workload"
)

// serveOptions sizes a serve workload's coordinator, with one
// simulation per queue worker so that queue workers × per-sweep
// parallelism stays at nproc. Warm runs are capped at 256 CTAs (about
// 20 ms a run on two CPUs), which keeps the set-up fill cheap. Cold
// runs keep every workload's own grid (about 90 ms a run): with runs
// that small, cold throughput swung by ±16% between runs of one seed,
// and with these by ±3%, while a twenty-second run still serves about
// 400 of them.
func serveOptions(cold bool) exp.Options {
	o := exp.Options{Divisor: 8, IterScale: 0.1, MaxCTAs: 256, Parallelism: 1}
	if cold {
		o.MaxCTAs = 0
	}
	return o
}

// sweep is one request of a corpus together with what the benchmark
// expects of it: the configuration the service must resolve it to and
// the content address of each requested run, in request order.
type sweep struct {
	req  service.SweepRequest
	cfg  arch.Config
	keys []string
}

// shape is a sweep request without its workloads.
type shape struct {
	preset  string
	sockets int
	cache   string
	link    string
	wt      bool
}

func (s shape) request(workloads []string) service.SweepRequest {
	return service.SweepRequest{Preset: s.preset, Sockets: s.sockets, CacheMode: s.cache,
		LinkMode: s.link, L2WriteThrough: s.wt, Workloads: workloads}
}

var cacheModes = map[string]arch.CacheMode{
	"mem-side-local":   arch.CacheMemSideLocal,
	"static-partition": arch.CacheStaticPartition,
	"shared-coherent":  arch.CacheSharedCoherent,
	"numa-aware":       arch.CacheNUMAAware,
}

var linkModes = map[string]arch.LinkMode{"static": arch.LinkStatic, "dynamic": arch.LinkDynamic}

// resolve derives the configuration a sweep request names, from the
// harness presets and the request's overrides as the sweep API
// documents them. The serve checks compare every served result with a
// direct simulation of this configuration.
func resolve(r *exp.Runner, s shape) (arch.Config, error) {
	var cfg arch.Config
	switch s.preset {
	case "base":
		cfg = r.Base(s.sockets)
	case "traditional":
		cfg = r.Traditional(s.sockets)
	case "numa-aware":
		cfg = r.NUMAAware(s.sockets)
	case "monolithic":
		cfg = r.Monolithic(s.sockets)
	default:
		return cfg, fmt.Errorf("unknown preset %q", s.preset)
	}
	if s.cache != "" {
		cfg.CacheMode = cacheModes[s.cache]
	}
	if s.link != "" {
		cfg.LinkMode = linkModes[s.link]
	}
	if s.wt {
		cfg.L2WriteThrough = true
	}
	return cfg, cfg.Validate()
}

// sliceShapes are the configurations of Figure 11 (one GPU, NUMA-aware
// at 2/4/8 sockets, 2/4/8× monolithic) plus the traditional 4-socket
// GPU. Both serve workloads serve them over sliceWorkloads, which is
// where their paper_agreement comes from.
var sliceShapes = []shape{
	{preset: "base", sockets: 1},
	{preset: "numa-aware", sockets: 2}, {preset: "numa-aware", sockets: 4}, {preset: "numa-aware", sockets: 8},
	{preset: "monolithic", sockets: 2}, {preset: "monolithic", sockets: 4}, {preset: "monolithic", sockets: 8},
	{preset: "traditional", sockets: 4},
}

// sliceWorkloads is every fourth workload of Table 2: eleven workloads
// spanning the table's ML, Rodinia, HPC and other groups.
func sliceWorkloads() []workload.Spec {
	var out []workload.Spec
	for i, s := range workload.Table() {
		if i%4 == 0 {
			out = append(out, s)
		}
	}
	return out
}

// coldShapes enumerates every distinct configuration the sweep API
// can name from the presets, socket counts 1–8 and the cache-mode,
// link-mode and write-through overrides. Requests that resolve to the
// same configuration (e.g. base with NUMA-aware caches and dynamic
// links is the numa-aware preset) are kept once.
func coldShapes(r *exp.Runner) []shape {
	presets := []struct {
		name    string
		sockets []int
	}{
		{"base", []int{1, 2, 4, 8}},
		{"traditional", []int{2, 4, 8}},
		{"numa-aware", []int{2, 4, 8}},
		{"monolithic", []int{2, 4, 8}},
	}
	ref := workload.Table()[0]
	seen := map[string]bool{}
	var out []shape
	for _, p := range presets {
		for _, n := range p.sockets {
			for _, cache := range []string{"", "mem-side-local", "static-partition", "shared-coherent", "numa-aware"} {
				for _, link := range []string{"", "static", "dynamic"} {
					for _, wt := range []bool{false, true} {
						s := shape{preset: p.name, sockets: n, cache: cache, link: link, wt: wt}
						cfg, err := resolve(r, s)
						if err != nil {
							continue
						}
						id := r.RunKey(cfg, ref)
						if seen[id] {
							continue
						}
						seen[id] = true
						out = append(out, s)
					}
				}
			}
		}
	}
	return out
}

// partition splits specs (in a seeded order) into sweeps of s with
// seeded widths from 1 to maxWidth.
func partition(r *exp.Runner, rng *rand.Rand, s shape, specs []workload.Spec, maxWidth int) ([]sweep, error) {
	cfg, err := resolve(r, s)
	if err != nil {
		return nil, err
	}
	order := rng.Perm(len(specs))
	var out []sweep
	for len(order) > 0 {
		w := 1 + rng.Intn(maxWidth)
		if w > len(order) {
			w = len(order)
		}
		out = append(out, newSweep(r, s, cfg, specs, order[:w]))
		order = order[w:]
	}
	return out, nil
}

func newSweep(r *exp.Runner, s shape, cfg arch.Config, specs []workload.Spec, idx []int) sweep {
	sw := sweep{cfg: cfg}
	var names []string
	for _, i := range idx {
		names = append(names, specs[i].Name)
		sw.keys = append(sw.keys, r.RunKey(cfg, specs[i]))
	}
	sw.req = s.request(names)
	return sw
}

// sliceSweeps covers every (slice shape, slice workload) pair exactly
// once, in seeded groupings of 1 to maxWidth workloads and seeded order.
func sliceSweeps(r *exp.Runner, rng *rand.Rand, maxWidth int) ([]sweep, error) {
	specs := sliceWorkloads()
	var out []sweep
	for _, i := range rng.Perm(len(sliceShapes)) {
		part, err := partition(r, rng, sliceShapes[i], specs, maxWidth)
		if err != nil {
			return nil, err
		}
		out = append(out, part...)
	}
	return out, nil
}

// warmCorpusLen is the length of the serve-warm corpus; clients cycle
// through it when a run outlasts it.
const warmCorpusLen = 400

// warmCorpus is the serve-warm traffic for one seed: the slice sweeps,
// which cover every filled key once, then overlapping sweeps of a
// random slice shape over a random subset of 1–11 slice workloads.
// fill holds the sweeps set-up serves to warm the coordinator, one per
// slice shape over every slice workload; it does not depend on the
// seed, so set-up costs the same on every seed.
func warmCorpus(r *exp.Runner, seed int64) (sweeps, fill []sweep, err error) {
	rng := rand.New(rand.NewSource(seed))
	specs := sliceWorkloads()
	every := make([]int, len(specs))
	for i := range every {
		every[i] = i
	}
	for _, s := range sliceShapes {
		cfg, err := resolve(r, s)
		if err != nil {
			return nil, nil, err
		}
		fill = append(fill, newSweep(r, s, cfg, specs, every))
	}
	if sweeps, err = sliceSweeps(r, rng, 5); err != nil {
		return nil, nil, err
	}
	for len(sweeps) < warmCorpusLen {
		s := sliceShapes[rng.Intn(len(sliceShapes))]
		cfg, err := resolve(r, s)
		if err != nil {
			return nil, nil, err
		}
		w := 1 + rng.Intn(len(specs))
		sweeps = append(sweeps, newSweep(r, s, cfg, specs, rng.Perm(len(specs))[:w]))
	}
	return sweeps, fill, nil
}

// coldCorpus is the serve-cold traffic for one seed: sweeps of one run
// each, first the slice, then every other (configuration, workload)
// pair of the sweep API in rounds. Each round asks for every workload
// once, each under its next configuration in a seeded per-workload
// order, so a run of any length sees the same mix of workloads
// whatever the seed. No key appears twice, so every run a cold
// coordinator serves must be simulated.
func coldCorpus(r *exp.Runner, seed int64) ([]sweep, error) {
	rng := rand.New(rand.NewSource(seed))
	out, err := sliceSweeps(r, rng, 1)
	if err != nil {
		return nil, err
	}
	used := map[string]bool{}
	for _, sw := range out {
		used[sw.keys[0]] = true
	}
	shapes := coldShapes(r)
	cfgs := make([]arch.Config, len(shapes))
	for i, s := range shapes {
		if cfgs[i], err = resolve(r, s); err != nil {
			return nil, err
		}
	}
	all := workload.Table()
	order := make([][]int, len(all)) // per workload: its configurations in seeded order
	for w := range all {
		order[w] = rng.Perm(len(shapes))
	}
	for round := range shapes {
		for _, w := range rng.Perm(len(all)) {
			i := order[w][round]
			if sw := newSweep(r, shapes[i], cfgs[i], all, []int{w}); !used[sw.keys[0]] {
				out = append(out, sw)
			}
		}
	}
	return out, nil
}
