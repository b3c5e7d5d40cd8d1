package exp

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// Cache is a pluggable second-level result store layered under the
// Runner's in-memory singleflight memo. On a memo miss the Runner asks
// the Cache before simulating; on a simulation it writes the result
// back. Implementations must be safe for concurrent use and may drop
// entries freely (the cache is an optimization, never a source of
// truth). The disk-backed implementation lives in internal/service.
//
// Keys are produced by Runner.RunKey and are stable across processes:
// they encode every architectural parameter, the workload name, and
// the workload scaling options, so a persisted result is only reused
// for a byte-identical simulation setup.
type Cache interface {
	// Get returns the cached result for key, if present.
	Get(key string) (core.Result, bool)
	// Put stores the result of a completed simulation under key.
	Put(key string, res core.Result)
}

// Stats counts what a Runner actually did, distinguishing real local
// simulations from results served by the second-level cache or executed
// by a remote Backend. Memo hits (repeats within one Runner lifetime)
// appear in no counter: they never leave the in-memory singleflight
// layer. The json tags make Stats part of the sweep-fabric wire format
// (workers report their counters to the coordinator every poll).
type Stats struct {
	// Simulations is the number of simulations executed locally by
	// this Runner.
	Simulations uint64 `json:"simulations"`
	// CacheHits counts runs served from Options.Cache without
	// simulating.
	CacheHits uint64 `json:"cache_hits"`
	// CacheMisses counts cache lookups that fell through to a
	// simulation or a backend run (only runs with a configured Cache
	// are counted).
	CacheMisses uint64 `json:"cache_misses"`
	// RemoteRuns counts runs executed by Options.Backend instead of
	// the local simulator.
	RemoteRuns uint64 `json:"remote_runs"`
	// DeltaHits counts unique keys of RunAll sweeps resolved without
	// new work (SourceCached: already memoized, or served from the
	// second-level cache): the measurable win of delta-aware sweep
	// coalescing.
	DeltaHits uint64 `json:"delta_hits"`
	// CoalescedKeys counts unique keys of RunAll sweeps that joined
	// another caller's execution in flight (SourceCoalesced) instead of
	// starting their own.
	CoalescedKeys uint64 `json:"coalesced_keys"`
}

// Add returns the fieldwise sum of two snapshots (used to aggregate a
// worker fleet).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Simulations:   s.Simulations + o.Simulations,
		CacheHits:     s.CacheHits + o.CacheHits,
		CacheMisses:   s.CacheMisses + o.CacheMisses,
		RemoteRuns:    s.RemoteRuns + o.RemoteRuns,
		DeltaHits:     s.DeltaHits + o.DeltaHits,
		CoalescedKeys: s.CoalescedKeys + o.CoalescedKeys,
	}
}

// Stats reports a snapshot of the Runner's run counters. It is safe to
// call concurrently with Run/RunAll.
func (r *Runner) Stats() Stats {
	return Stats{
		Simulations:   r.sims.Load(),
		CacheHits:     r.cacheHits.Load(),
		CacheMisses:   r.cacheMisses.Load(),
		RemoteRuns:    r.remoteRuns.Load(),
		DeltaHits:     r.deltaHits.Load(),
		CoalescedKeys: r.coalescedKeys.Load(),
	}
}

// cacheSchema versions the persistent cache namespace. Bump it
// whenever the simulator's behaviour changes in a result-affecting way
// that the key inputs cannot see (event ordering, policy logic,
// workload generation), so stale results from an older binary are
// misses rather than silently served as current.
// Schema 2: Socket.remoteRead charges the L2 access latency on merged
// MSHR waiters symmetrically with the primary requester (timing fix;
// cycle counts shift slightly in the cached-remote modes).
// Schema 3: the fabric routes over an explicit topology graph and the
// key gains the canonical topology encoding; nil-topology results are
// unchanged but daemons may mix binaries, so the namespace rolls.
const cacheSchema = 3

// RunKey returns the content address of one (config, workload) run
// under this Runner's options: a schema version, every field of the
// architectural configuration (cfgKey's policy-study fields plus the
// fixed machine parameters it elides for brevity), the workload name,
// and the workload scaling parameters (IterScale, MaxCTAs). Two
// Runners — in the same process or across restarts — produce the same
// key exactly when Run would produce the same Result, which is what
// makes the key safe to use for a persistent Cache.
//
// The workload is identified by Spec.Name: callers substituting a
// custom Spec under an existing table name must not share a Cache with
// runs of the table workload.
func (r *Runner) RunKey(cfg arch.Config, spec workload.Spec) string {
	return runKey(r.opts, cfg, spec)
}

// runKey is RunKey under options o.
func runKey(o Options, cfg arch.Config, spec workload.Spec) string {
	return fmt.Sprintf("v%d|%s.%s|%s|iter%g.cap%d",
		cacheSchema, cfgKey(cfg), machineKey(cfg), spec.Name, o.IterScale, o.MaxCTAs)
}

// machineKey fingerprints the arch.Config fields cfgKey leaves out:
// the machine parameters that are constant within one harness but
// differ across divisors, hand-built configs, or future PaperConfig
// revisions. Together cfgKey + machineKey cover every Config field.
func machineKey(c arch.Config) string {
	k := fmt.Sprintf("w%d.cta%d.iw%d.l1_%d/%d/%d.l2_%d/%d/%d.noc%g/%d.dl%d.ll%d.sl%d.hdr%d/%d",
		c.MaxWarpsPerSM, c.MaxCTAsPerSM, c.IssueWidth,
		c.L1Bytes, c.L1Assoc, c.L1Latency,
		c.L2Assoc, c.L2Banks, c.L2Latency,
		c.NoCBandwidth, c.NoCLatency, c.DRAMLatency,
		c.LinkLatency, c.SwitchLatency,
		c.RequestHeader, c.ResponseHeader)
	if c.Topology != nil {
		// The canonical encoding covers every topology field, including
		// link order (it breaks routing ties). Nil encodes as nothing:
		// the synthesized crossbar is fully determined by the fields
		// above.
		k += ".topo[" + c.Topology.Canonical() + "]"
	}
	return k
}

// counters holds the Runner's atomic run accounting; embedded so the
// zero value is ready to use.
type counters struct {
	sims          atomic.Uint64
	systems       atomic.Uint64 // core.Systems built; below sims when pool workers reuse theirs
	cacheHits     atomic.Uint64
	cacheMisses   atomic.Uint64
	remoteRuns    atomic.Uint64
	deltaHits     atomic.Uint64
	coalescedKeys atomic.Uint64
}
