// Package exp is the experiment harness: one entry point per table and
// figure of Milic et al. (MICRO 2017), each returning a rendered text
// table plus a machine-readable summary used by the benchmark suite and
// the README. Runs are memoized so shared baselines (e.g. the
// single-GPU reference) are simulated once per harness, and every
// experiment submits its full (config, workload) sweep up front through
// RunAll, which executes the independent simulations on a worker pool
// sized by Options.Parallelism while keeping result order — and thus
// every rendered table — identical to the sequential harness. A
// pluggable second-level Cache (Options.Cache) persists results below
// the memo; the numagpud service (internal/service) layers a
// disk-backed implementation under a shared Runner so results survive
// restarts. See ARCHITECTURE.md for the full design.
package exp

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Options sizes the harness.
type Options struct {
	// Divisor scales per-socket architecture resources relative to the
	// paper machine (see arch.ScaledConfig). Default 8.
	Divisor int
	// IterScale scales workload iteration counts. Default 1.0.
	IterScale float64
	// MaxCTAs caps grid sizes (0 = uncapped).
	MaxCTAs int
	// Workloads overrides the evaluated set (default: workload.Table()).
	Workloads []workload.Spec
	// Parallelism bounds the number of simulations RunAll executes
	// concurrently. Default (and any value < 1): runtime.GOMAXPROCS(0).
	// 1 reproduces the strictly sequential harness.
	Parallelism int
	// Cache, when non-nil, is consulted before every simulation and
	// updated after it: a second-level, typically persistent store
	// below the in-memory memo. See the Cache interface.
	Cache Cache
	// Backend, when non-nil, executes each memo-and-cache-missing run
	// out of process (e.g. on a numagpud sweep fabric) instead of
	// simulating inline. ErrBackendUnavailable falls back to a local
	// simulation; any other backend error fails the run exactly like a
	// local simulation panic. See the Backend interface.
	Backend Backend
	// Topology, when non-nil, replaces the symmetric crossbar of every
	// config whose socket count matches len(Topology.Sockets); configs
	// with other socket counts (monolithic references, cross-socket
	// scaling sweeps) keep the synthesized crossbar.
	Topology *topo.Topology
	// Obs, when enabled, attaches the internal/obs observability layer
	// to every local simulation. Execution policy only: results are
	// byte-identical with observation on, so the spec is excluded from
	// run and cache keys and applied after key computation. An
	// observed run must actually simulate, so the cache-read and
	// Backend fast paths are skipped (results are still written back
	// to the cache — they are the same bytes).
	Obs arch.ObsSpec
	// ObsSink receives each observed run's collector after the
	// simulation finishes, before Run returns. Called once per unique
	// run key (memoized repeats share the first call), serialized by
	// the singleflight memo for a given key but concurrent across keys
	// under RunAll.
	ObsSink func(key string, spec workload.Spec, col *obs.Collector)
	// OnResult, when non-nil, is invoked exactly once per unique run
	// key the Runner completes — simulated, cache-served, or remote —
	// with the run's content address (RunKey), its result, and how the
	// winning execution obtained it. Invocations are serialized; under
	// parallelism their order is completion order. Runs that panic
	// (including deterministic backend failures) fire no callback.
	// Per-caller attribution — "which of MY requests completed" —
	// belongs to Runner.Session, not here. RunLog builds the per-run
	// progress line callback the commands use.
	OnResult func(key string, res core.Result, source RunSource)
}

// RunLog returns an Options.OnResult callback that writes one line per
// completed run to w: the workload, how the run resolved and its
// cycles. It serializes its own writes, so Runners sharing one RunLog
// never interleave lines.
func RunLog(w io.Writer) func(key string, res core.Result, source RunSource) {
	var mu sync.Mutex
	return func(_ string, res core.Result, src RunSource) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(w, "done %-28s %-10s %12d cycles\n", res.Name, src, res.Cycles)
	}
}

// DefaultOptions is the reference harness size (minutes for the full
// suite on a laptop).
func DefaultOptions() Options {
	return Options{Divisor: 8, IterScale: 1}
}

// QuickOptions is a reduced size for benchmarks and CI.
func QuickOptions() Options {
	return Options{Divisor: 8, IterScale: 0.25}
}

func (o Options) normalized() Options {
	if o.Divisor < 1 {
		o.Divisor = 8
	}
	if o.IterScale <= 0 {
		o.IterScale = 1
	}
	if o.Workloads == nil {
		o.Workloads = workload.Table()
	}
	if o.MaxCTAs < 0 {
		o.MaxCTAs = 0 // uncapped either way; one spelling keeps one RunKey
	}
	if o.Parallelism < 1 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

func (o Options) workloadOptions() workload.Options {
	return workload.Options{IterScale: o.IterScale, MaxCTAs: o.MaxCTAs}
}

// Result couples a printable table with the headline numbers of one
// experiment. It marshals to the {"table","summary"} JSON served by
// numagpud and printed by cmd/numagpu -json; encoding/json sorts the
// summary keys, so the encoding is deterministic.
type Result struct {
	Table   *stats.Table       `json:"table"`
	Summary map[string]float64 `json:"summary"`
}

// Runner executes and memoizes simulation runs for the harness.
//
// A Runner is safe for concurrent use: any number of goroutines may
// call Run (or RunAll) simultaneously. Concurrent callers asking for
// the same (config, workload) pair share a single simulation — the
// first caller runs it, the rest block on its completion — so each
// memo key is simulated exactly once per Runner lifetime. The Runners
// that Session and Scaled derive share that memo.
type Runner struct {
	opts Options
	*shared

	// on is the per-caller callback Session gave this Runner (nil on
	// one NewRunner built); it fires once per key seen.
	on   func(key string, res core.Result, source RunSource)
	onMu sync.Mutex // serializes on and guards seen
	seen map[string]bool
}

// shared is the execution state of a Runner and every Runner Session
// or Scaled derives from it.
type shared struct {
	mu   sync.Mutex // guards memo (the map itself, not entry results)
	memo map[string]*memoEntry

	onResultMu sync.Mutex // serializes Options.OnResult invocations

	counters // simulation / cache-hit / cache-miss accounting
}

// memoEntry is the singleflight slot for one (config, workload) key:
// the winning goroutine simulates inside once, everyone else blocks on
// once.Do and then reads res, which once guarantees is visible. A
// panicking simulation records its panic value so every caller of the
// key re-raises it instead of reading a zero Result off the spent Once.
// done flips (after res and source are set) when the entry completed
// successfully, so a late caller can tell a finished entry (cached) from
// one still mid-simulation (coalesced).
type memoEntry struct {
	once     sync.Once
	res      core.Result
	source   RunSource
	done     atomic.Bool
	panicked any
}

// NewRunner builds a harness with the given options.
func NewRunner(opts Options) *Runner {
	return &Runner{opts: opts.normalized(), shared: &shared{memo: make(map[string]*memoEntry)}}
}

// Session derives a Runner for one caller: it shares r's memo, cache,
// backend, options and counters, and reports every run the caller
// requests through it to on — including runs that were already
// memoized (SourceCached) or that another caller had in flight
// (SourceCoalesced) — once per key, serialized, at the moment the
// caller's request for it completes. So one numagpud job's event
// stream covers exactly its own RunKeys, however many Sessions share
// the Runner concurrently. on (may be nil) replaces any callback r
// carries, and must not call back into the returned Runner.
func (r *Runner) Session(on func(key string, res core.Result, source RunSource)) *Runner {
	return &Runner{opts: r.opts, shared: r.shared, on: on, seen: make(map[string]bool)}
}

// Scaled derives a Runner for another workload scaling: it shares r's
// memo, cache, backend, options and counters, and differs only in
// IterScale and MaxCTAs, normalized as Options are (a non-positive
// iterScale is 1, a negative maxCTAs uncapped). RunKey embeds the
// scaling, so runs of every scale share the one memo without colliding.
// The derived Runner reports to no Session callback.
func (r *Runner) Scaled(iterScale float64, maxCTAs int) *Runner {
	o := r.opts
	o.IterScale, o.MaxCTAs = iterScale, maxCTAs
	return &Runner{opts: o.normalized(), shared: r.shared}
}

// Options reports the normalized options in use.
func (r *Runner) Options() Options { return r.opts }

// Base returns the locality-optimized software baseline the paper
// builds everything on: contiguous-block scheduling, first-touch
// placement, memory-side L2, static symmetric links.
func (r *Runner) Base(sockets int) arch.Config {
	c := arch.ScaledConfig(r.opts.Divisor)
	c.Sockets = sockets
	c.Sched = arch.SchedBlock
	c.Placement = arch.PlaceFirstTouch
	c.CacheMode = arch.CacheMemSideLocal
	c.LinkMode = arch.LinkStatic
	if t := r.opts.Topology; t != nil && len(t.Sockets) == sockets {
		c.Topology = t
	}
	return c
}

// Traditional returns the single-GPU policies naively extended to a
// multi-socket GPU (fine-grain CTA interleave + fine-grain memory
// interleave): the green bars of Figure 3.
func (r *Runner) Traditional(sockets int) arch.Config {
	c := r.Base(sockets)
	c.Sched = arch.SchedFineGrain
	c.Placement = arch.PlaceFineInterleave
	return c
}

// NUMAAware returns the paper's full proposal: dynamic asymmetric links
// plus NUMA-aware L1/L2 partitioning on the locality runtime.
func (r *Runner) NUMAAware(sockets int) arch.Config {
	c := r.Base(sockets)
	c.CacheMode = arch.CacheNUMAAware
	c.LinkMode = arch.LinkDynamic
	return c
}

// Monolithic returns the hypothetical factor× larger single GPU.
func (r *Runner) Monolithic(factor int) arch.Config {
	return r.Base(1).Monolithic(factor)
}

// Preset resolves a configuration preset by name: "base" (or ""),
// "traditional", "numa-aware" or "monolithic", the last a single GPU
// sockets× larger.
func (r *Runner) Preset(name string, sockets int) (arch.Config, error) {
	switch name {
	case "", "base":
		return r.Base(sockets), nil
	case "traditional":
		return r.Traditional(sockets), nil
	case "numa-aware":
		return r.NUMAAware(sockets), nil
	case "monolithic":
		return r.Monolithic(sockets), nil
	}
	return arch.Config{}, fmt.Errorf("unknown preset %q (want base, traditional, numa-aware or monolithic)", name)
}

// Run simulates spec under cfg (memoized). Concurrent calls for the
// same pair share one simulation; see the Runner doc comment.
// With Options.Cache set, a memo miss first consults the cache
// (counted in Stats) and only simulates — then writes back — on a
// cache miss, so warm results cost one Get instead of a simulation.
func (r *Runner) Run(cfg arch.Config, spec workload.Spec) core.Result {
	key := r.RunKey(cfg, spec)
	res, src := r.runKeyed(key, cfg, spec, nil)
	r.emit(key, res, src)
	return res
}

// emit reports a completed request to the Session callback, once per
// key.
func (r *Runner) emit(key string, res core.Result, src RunSource) {
	if r.on == nil {
		return
	}
	r.onMu.Lock()
	defer r.onMu.Unlock()
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	r.on(key, res, src)
}

// entry returns the singleflight slot for key, creating it on first
// reference.
func (r *Runner) entry(key string) *memoEntry {
	r.mu.Lock()
	e, ok := r.memo[key]
	if !ok {
		e = &memoEntry{}
		r.memo[key] = e
	}
	r.mu.Unlock()
	return e
}

// finish completes a memo entry: records how the winning execution
// obtained the result, publishes done, and fires Options.OnResult.
// Called exactly once per entry, from inside the winning once.Do body,
// after e.res is set.
func (r *Runner) finish(key string, e *memoEntry, src RunSource) {
	e.source = src
	e.done.Store(true)
	if r.opts.OnResult != nil {
		r.onResultMu.Lock()
		r.opts.OnResult(key, e.res, src)
		r.onResultMu.Unlock()
	}
}

// runKeyed executes one memoized run and reports how this particular
// call was satisfied: the winning caller sees the real source
// (simulated, cached, remote); a caller that found the key already
// complete sees SourceCached; a caller that blocked on another
// caller's in-flight execution sees SourceCoalesced. A local
// unobserved simulation runs on the pool worker's System when slot
// holds one of the same configuration; a nil slot builds a fresh one.
func (r *Runner) runKeyed(key string, cfg arch.Config, spec workload.Spec, slot *sysSlot) (core.Result, RunSource) {
	e := r.entry(key)
	wasDone := e.done.Load()
	won := false
	e.once.Do(func() {
		won = true
		defer func() {
			if p := recover(); p != nil {
				e.panicked = p
			}
		}()
		// An observed run must simulate locally: a cached or remote
		// result has no series or trace to flush. Keys ignore Obs, so
		// the result written back below is interchangeable with an
		// unobserved one (byte-identity is the obs contract).
		observed := r.opts.Obs.Enabled()
		if c := r.opts.Cache; c != nil && !observed {
			if res, ok := c.Get(key); ok {
				res.Name = spec.Name
				e.res = res
				r.cacheHits.Add(1)
				r.finish(key, e, SourceCached)
				return
			}
			r.cacheMisses.Add(1)
		}
		if b := r.opts.Backend; b != nil && !observed {
			res, err := b.Execute(key, cfg, spec, r.opts.workloadOptions())
			switch {
			case err == nil:
				res.Name = spec.Name
				e.res = res
				r.remoteRuns.Add(1)
				if c := r.opts.Cache; c != nil {
					c.Put(key, res)
				}
				r.finish(key, e, SourceRemote)
				return
			case !errors.Is(err, ErrBackendUnavailable):
				// Failed like a simulation: memoized and re-raised for
				// every caller of this key, so a deterministic remote
				// failure (bad config, version skew) is not retried.
				panic(fmt.Errorf("exp: backend run of %s failed: %w", spec.Name, err))
			}
			// Backend unavailable: simulate locally below.
		}
		simCfg := cfg
		if observed {
			// Applied after RunKey: observation must not change
			// run identity. An observed System serves one run only.
			simCfg.Obs = r.opts.Obs
			slot = nil
		}
		sys := slot.take(simCfg)
		if sys == nil {
			sys = core.MustSystem(simCfg)
			r.systems.Add(1)
		}
		res := sys.Run(spec.Program(r.opts.workloadOptions()))
		slot.keep(sys)
		res.Name = spec.Name
		e.res = res
		if observed && r.opts.ObsSink != nil {
			r.opts.ObsSink(key, spec, sys.Obs())
		}
		r.sims.Add(1)
		if c := r.opts.Cache; c != nil {
			c.Put(key, res)
		}
		r.finish(key, e, SourceSimulated)
	})
	if e.panicked != nil {
		if err, ok := e.panicked.(error); ok && errors.Is(err, ErrDeadlineExceeded) {
			// A deadline cancellation is tied to the submitting job, not
			// to the run: evict the spent memo entry so a later job can
			// retry the key instead of inheriting the cancellation.
			r.mu.Lock()
			if r.memo[key] == e {
				delete(r.memo, key)
			}
			r.mu.Unlock()
		}
		panic(e.panicked)
	}
	switch {
	case won:
		return e.res, e.source
	case wasDone:
		return e.res, SourceCached
	default:
		return e.res, SourceCoalesced
	}
}

// RunRequest names one (config, workload) simulation of a sweep.
type RunRequest struct {
	Cfg  arch.Config
	Spec workload.Spec
}

// RunAll executes every requested simulation, at most
// Options.Parallelism at a time, and returns the results in request
// order: out[i] is the result of reqs[i]. Each key runs once however
// often the sweep repeats it (a repeat in flight alongside the first
// request would otherwise race it to the Session callback and could
// report the caller's own simulation as coalesced). Each unique key
// resolves through the memo, then Options.Cache, then Options.Backend,
// and only then the local simulator, so an overlapping sweep executes
// only its uncovered delta: keys resolved without new work count into
// Stats.DeltaHits, keys joined in flight into Stats.CoalescedKeys. The
// pool takes the requests grouped by configuration (see byConfig), and
// each worker resets the System of its last run for the next run of
// the same configuration instead of building a new one. Because each simulation is deterministic and a
// reset System runs exactly as a fresh one, the returned slice is
// identical to what a sequential loop over Run would produce; only
// completion order, and with it the order of Options.OnResult and
// Session callbacks, follows the grouping. If any simulation panics,
// RunAll finishes draining the sweep and then re-raises one of the
// recorded panic values (the first to complete, not necessarily the
// first in request order) on the caller's goroutine.
func (r *Runner) RunAll(reqs []RunRequest) []core.Result {
	keys := make([]string, len(reqs))
	slot := make(map[string]int, len(reqs)) // key → index into uniq
	var uniq []int                          // request index of each key's first request
	for i, q := range reqs {
		keys[i] = r.RunKey(q.Cfg, q.Spec)
		if _, ok := slot[keys[i]]; !ok {
			slot[keys[i]] = len(uniq)
			uniq = append(uniq, i)
		}
	}
	order := byConfig(len(uniq), func(j int) arch.Config { return reqs[uniq[j]].Cfg })
	res := runPool(r.opts.Parallelism, len(uniq), order, func(j int, w *sysSlot) core.Result {
		i := uniq[j]
		res, src := r.runKeyed(keys[i], reqs[i].Cfg, reqs[i].Spec, w)
		switch src {
		case SourceCached:
			r.deltaHits.Add(1)
		case SourceCoalesced:
			r.coalescedKeys.Add(1)
		}
		r.emit(keys[i], res, src)
		return res
	})
	if len(uniq) == len(reqs) {
		return res // no key repeats, so res is already in request order
	}
	out := make([]core.Result, len(reqs))
	for i := range reqs {
		out[i] = res[slot[keys[i]]]
	}
	return out
}

// byConfig returns the order in which a sweep of n runs, run i under
// configuration cfg(i), goes to the pool: grouped by configuration,
// the groups in order of their first run and each group in run order,
// so that a pool worker's next run mostly shares its last one's
// configuration. When every run shares one configuration it returns
// nil, meaning run order, and allocates nothing.
func byConfig(n int, cfg func(i int) arch.Config) []int {
	same := 1
	for same < n && cfg(same) == cfg(0) {
		same++
	}
	if same >= n {
		return nil
	}
	group := make([]int, n) // run → group, numbered by first run
	first := map[arch.Config]int{}
	for i := range group {
		g, ok := first[cfg(i)]
		if !ok {
			g = len(first)
			first[cfg(i)] = g
		}
		group[i] = g
	}
	// A counting sort by group keeps run order within each group.
	next := make([]int, len(first)+1)
	for _, g := range group {
		next[g+1]++
	}
	for g := 1; g < len(next); g++ {
		next[g] += next[g-1]
	}
	order := make([]int, n)
	for i, g := range group {
		order[next[g]] = i
		next[g]++
	}
	return order
}

// sysSlot is one pool worker's System: the one its last local
// simulation ran on, kept for the rest of the pool's life. A System
// holds a few megabytes of caches, tables and event slab, so no slot
// outlives its pool.
type sysSlot struct {
	sys *core.System
}

// take hands out the slot's System, reset, when it was built for cfg,
// and otherwise nil: the caller builds a new one. The slot is empty
// afterwards, so a System whose run panics is never reused, and one
// of another configuration can be collected before its successor is
// built. A nil slot holds nothing.
func (w *sysSlot) take(cfg arch.Config) *core.System {
	if w == nil || w.sys == nil {
		return nil
	}
	sys := w.sys
	w.sys = nil
	if sys.Config() != cfg || sys.Reset() != nil {
		return nil
	}
	return sys
}

// keep stores sys, whose run completed, for the worker's next run.
func (w *sysSlot) keep(sys *core.System) {
	if w != nil {
		w.sys = sys
	}
}

// runPool executes n indexed tasks on at most par workers, preserving
// index order in the returned slice. Tasks are handed out in order
// (nil: index order), and each worker passes the tasks it runs one
// sysSlot of its own. If any task panics, the pool finishes draining
// and re-raises one recorded panic value (the first to complete, not
// necessarily the first by index) on the caller's goroutine.
func runPool(par, n int, order []int, run func(i int, slot *sysSlot) core.Result) []core.Result {
	out := make([]core.Result, n)
	task := func(j int) int {
		if order != nil {
			return order[j]
		}
		return j
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		var slot sysSlot
		for j := range out {
			i := task(j)
			out[i] = run(i, &slot)
		}
		return out
	}
	var (
		panicOnce sync.Once
		panicVal  any
	)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var slot sysSlot
			for i := range idx {
				func() {
					defer func() {
						if p := recover(); p != nil {
							panicOnce.Do(func() { panicVal = p })
						}
					}()
					out[i] = run(i, &slot)
				}()
			}
		}()
	}
	for j := 0; j < n; j++ {
		idx <- task(j)
	}
	close(idx)
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return out
}

// evaluated filters the configured workload set to the non-grey 32.
func (r *Runner) evaluated() []workload.Spec {
	var out []workload.Spec
	for _, s := range r.opts.Workloads {
		if !s.Grey {
			out = append(out, s)
		}
	}
	return out
}
