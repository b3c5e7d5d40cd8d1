package exp

import "repro/internal/workload"

// RunSource says how one completed run was obtained, from the
// perspective of the caller that asked for it. It rides the typed
// event stream of the numagpud service (run_done events) and the
// Options.OnResult and Runner.Session callbacks.
type RunSource string

const (
	// SourceSimulated: the run executed the local simulator.
	SourceSimulated RunSource = "simulated"
	// SourceCached: the run was resolved without new work — from the
	// second-level cache, or from a memo entry another caller had
	// already completed.
	SourceCached RunSource = "cached"
	// SourceRemote: the run executed on Options.Backend (e.g. the
	// numagpud sweep fabric).
	SourceRemote RunSource = "remote"
	// SourceCoalesced: the caller blocked on — and shares the result
	// of — an execution another caller already had in flight.
	SourceCoalesced RunSource = "coalesced"
)

// SweepPlan partitions one sweep's requests by how much work each will
// actually need, resolved against the in-memory memo and the
// second-level cache at planning time:
//
//   - Cached: already complete (memoized, or present in Options.Cache —
//     those are pulled into the memo by Plan itself, so executing them
//     later costs nothing);
//   - Inflight: another caller's execution of the same key was mid-
//     flight at planning time; the sweep will ride it;
//   - Todo: genuinely new work — the only class that will reach the
//     backend or the local simulation pool.
//
// All three slices hold indices into the reqs slice given to
// Runner.Plan; requests sharing a RunKey share a class, and Keys[i] is
// reqs[i]'s content address. The partition is a snapshot: concurrent
// callers can complete Todo keys before the sweep executes them (they
// then resolve as cached/coalesced at run time).
type SweepPlan struct {
	Keys     []string
	Cached   []int
	Inflight []int
	Todo     []int
}

const (
	planCached = iota
	planInflight
	planTodo
)

// Plan resolves every request of a sweep against the memo and the
// second-level cache before anything is dispatched, so an overlapping
// sweep executes only its uncovered delta. Second-level cache hits are
// promoted into the memo here (completing their entries and firing
// Options.OnResult), and the partition is counted into Stats: unique
// Cached keys as DeltaHits, unique Inflight keys as CoalescedKeys.
// Plan does not execute anything — follow with RunAll (of this Runner
// or one of its Sessions) over the same reqs.
//
// With Options.Obs enabled every key classifies as Todo and the cache
// is not consulted: an observed run must actually simulate.
func (r *Runner) Plan(reqs []RunRequest) SweepPlan {
	plan := SweepPlan{Keys: make([]string, len(reqs))}
	observed := r.opts.Obs.Enabled()
	class := make(map[string]int, len(reqs))
	for i, q := range reqs {
		key := r.RunKey(q.Cfg, q.Spec)
		plan.Keys[i] = key
		cls, seen := class[key]
		if !seen {
			cls = r.classify(key, q.Spec, observed)
			class[key] = cls
			switch cls {
			case planCached:
				r.deltaHits.Add(1)
			case planInflight:
				r.coalescedKeys.Add(1)
			}
		}
		switch cls {
		case planCached:
			plan.Cached = append(plan.Cached, i)
		case planInflight:
			plan.Inflight = append(plan.Inflight, i)
		default:
			plan.Todo = append(plan.Todo, i)
		}
	}
	return plan
}

// classify resolves one unique key at planning time, prefilling the
// memo from the second-level cache when possible.
func (r *Runner) classify(key string, spec workload.Spec, observed bool) int {
	if observed {
		return planTodo
	}
	r.mu.Lock()
	if e, ok := r.memo[key]; ok {
		done := e.done.Load()
		r.mu.Unlock()
		if done {
			return planCached
		}
		return planInflight
	}
	r.mu.Unlock()
	c := r.opts.Cache
	if c == nil {
		return planTodo
	}
	res, hit := c.Get(key)
	if !hit {
		// Not counted as a cache miss here: if the key stays cold the
		// executing run's own lookup counts exactly one miss.
		return planTodo
	}
	res.Name = spec.Name
	// Re-check under the lock — a concurrent Run may have created the
	// entry while we were reading the cache.
	r.mu.Lock()
	e, ok := r.memo[key]
	if ok {
		done := e.done.Load()
		r.mu.Unlock()
		if done {
			return planCached
		}
		return planInflight
	}
	e = &memoEntry{}
	r.memo[key] = e
	r.mu.Unlock()
	e.once.Do(func() {
		e.res = res
		r.cacheHits.Add(1)
		r.finish(key, e, SourceCached)
	})
	return planCached
}
