package exp

import (
	"sync"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// Harness is the experiment-facing surface shared by *Runner and
// *Session: everything a figure needs to build configurations and
// execute its sweep. Experiment entry points (Experiment.Run) take a
// Harness, so a caller that needs per-request attribution — the
// numagpud service streaming one job's run completions — hands the
// experiment a Session without giving up the Runner's shared memo,
// cache, and backend. Standalone callers keep passing a *Runner.
type Harness interface {
	Options() Options
	Base(sockets int) arch.Config
	Traditional(sockets int) arch.Config
	NUMAAware(sockets int) arch.Config
	Monolithic(factor int) arch.Config
	Run(cfg arch.Config, spec workload.Spec) core.Result
	RunAll(reqs []RunRequest) []core.Result

	// evaluated keeps the interface closed to this package: the harness
	// contract includes unexported helpers the figures rely on.
	evaluated() []workload.Spec
}

var (
	_ Harness = (*Runner)(nil)
	_ Harness = (*Session)(nil)
)

// Session wraps a Runner with a per-caller completion callback: every
// run the session requests reports back through its own callback —
// including runs that were already memoized (SourceCached) or that
// another caller had in flight (SourceCoalesced) — deduplicated per
// key, so one job's event stream covers exactly its own RunKeys and
// nothing else. All execution state (memo, second-level cache, backend,
// counters) remains the Runner's; any number of Sessions may share one
// Runner concurrently.
type Session struct {
	r  *Runner
	on func(key string, res core.Result, source RunSource)

	mu   sync.Mutex // serializes the callback and guards seen
	seen map[string]bool
}

// Session derives a per-caller view of the Runner. on (may be nil) is
// invoked once per unique key this session requests, serialized, at
// the moment the session's request for it completes. The callback must
// not call back into the Session.
func (r *Runner) Session(on func(key string, res core.Result, source RunSource)) *Session {
	return &Session{r: r, on: on, seen: make(map[string]bool)}
}

// Options reports the underlying Runner's normalized options.
func (s *Session) Options() Options { return s.r.Options() }

// Base delegates to the underlying Runner.
func (s *Session) Base(sockets int) arch.Config { return s.r.Base(sockets) }

// Traditional delegates to the underlying Runner.
func (s *Session) Traditional(sockets int) arch.Config { return s.r.Traditional(sockets) }

// NUMAAware delegates to the underlying Runner.
func (s *Session) NUMAAware(sockets int) arch.Config { return s.r.NUMAAware(sockets) }

// Monolithic delegates to the underlying Runner.
func (s *Session) Monolithic(factor int) arch.Config { return s.r.Monolithic(factor) }

func (s *Session) evaluated() []workload.Spec { return s.r.evaluated() }

// Run executes one memoized run through the underlying Runner and
// reports its completion to the session callback.
func (s *Session) Run(cfg arch.Config, spec workload.Spec) core.Result {
	key := s.r.RunKey(cfg, spec)
	res, src := s.r.runKeyed(key, cfg, spec, nil)
	s.emit(key, res, src)
	return res
}

// RunAll mirrors Runner.RunAll — same pool, same grouping by
// configuration, same request-order guarantee — with every completion
// flowing through the session callback. Each key runs once however
// often the sweep repeats it: a repeat in flight alongside the first
// request would otherwise race it to the callback and could report
// the session's own simulation as coalesced.
func (s *Session) RunAll(reqs []RunRequest) []core.Result {
	keys := make([]string, len(reqs))
	slot := make(map[string]int, len(reqs)) // key → index into uniq
	var uniq []int                          // request index of each key's first request
	for i, q := range reqs {
		keys[i] = s.r.RunKey(q.Cfg, q.Spec)
		if _, ok := slot[keys[i]]; !ok {
			slot[keys[i]] = len(uniq)
			uniq = append(uniq, i)
		}
	}
	order := byConfig(len(uniq), func(j int) arch.Config { return reqs[uniq[j]].Cfg })
	res := runPool(s.r.opts.Parallelism, len(uniq), order, func(j int, w *sysSlot) core.Result {
		i := uniq[j]
		r, src := s.r.runKeyed(keys[i], reqs[i].Cfg, reqs[i].Spec, w)
		s.emit(keys[i], r, src)
		return r
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

func (s *Session) emit(key string, res core.Result, src RunSource) {
	if s.on == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	s.on(key, res, src)
}
