package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/workload"
)

// This file is the coordinator half of the distributed sweep fabric:
// numagpud workers (see worker.go) register here, lease shards — one
// shard per unique RunKey — over a pull-based poll protocol, and ship
// result bytes back so the coordinator's DiskCache stays the single
// source of truth. The design, bottom to top:
//
//   - dedupe: every run entering the fabric first passes through the
//     coordinator's Runner (memo + DiskCache), so only genuinely new
//     RunKeys reach the shard table, and the table itself is keyed by
//     RunKey — two jobs, or a job and a remote numagpu client, asking
//     for the same simulation share one shard and one worker execution;
//   - leases: a shard is leased to exactly one worker at a time, and a
//     worker's polls are its heartbeat. A worker that stops polling for
//     LeaseTTL is declared dead and its leased shards are re-queued at
//     the front of the pending queue (counted in shards_requeued);
//   - windows: each worker declares an in-flight window at
//     registration; the coordinator never leases it more shards than
//     the window, so a slow worker cannot strand a sweep's tail;
//   - fallback: with no live workers (none registered, or all expired)
//     the dispatcher reports exp.ErrBackendUnavailable and the Runner
//     simulates locally, so a coordinator without a fleet behaves
//     exactly like a plain numagpud;
//   - ingest: results are verified against the shard's RunKey and
//     accepted at most once; a report for an unknown or already
//     completed shard (a worker that outlived its lease) is dropped and
//     counted in results_stale, never double-applied.
type fabric struct {
	leaseTTL time.Duration
	poll     time.Duration

	// cache, when non-nil, receives every worker-produced result at
	// ingest time (in addition to the Runner's own write-through). This
	// matters after a coordinator restart: a resumed shard's result can
	// arrive before any local waiter exists, and persisting it here is
	// what lets the re-executed job hit the cache instead of simulating
	// the key a second time.
	cache *DiskCache
	// jnl, when non-nil, records every grant, completion, and requeue so
	// a restarted coordinator can rebuild the lease picture.
	jnl *journal
	// deadlineFn, when non-nil, reports the job-level deadline to stamp
	// on newly created shards (zero = none). See Server.activeDeadline.
	deadlineFn func() time.Time

	mu      sync.Mutex
	closed  bool
	frozen  bool // kill -9 simulation: everything stops, nothing resolves
	workers map[string]*fabWorker
	shards  map[string]*shard // in-flight (pending or leased), by RunKey
	queue   []*shard          // pending shards, FIFO; lazily compacted
	nextWID int
	nextSID int

	// graceUntil, when armed after a journal replay, suppresses the
	// no-workers local-simulation fallback: a restarted coordinator
	// gives its fleet one lease TTL to re-register before concluding it
	// has none. graceArmed distinguishes "armed" from "expired".
	graceUntil time.Time
	graceArmed bool

	// Counters (guarded by mu). shardsTotal counts unique RunKeys that
	// ever entered the fabric; completed counts shards finished with a
	// worker-produced result.
	shardsTotal       uint64
	completed         uint64
	failed            uint64
	requeued          uint64
	staleResults      uint64
	workersSeen       uint64
	resumed           uint64 // shards rebuilt from journaled grants at restart
	deadlineCancelled uint64
	// departed holds the last absolute counters reported by each
	// dead/deregistered worker process. Workers report cumulative
	// per-process stats and are keyed by a stable process ID across
	// re-registrations, so a worker that expires and re-registers never
	// has its counters summed twice: per process, the coordinator keeps
	// the fieldwise max of what it has seen (the counters are
	// monotonic), whichever registration reported it.
	departed map[string]exp.Stats

	stop        chan struct{}
	janitorDone chan struct{}
}

// fabWorker is the coordinator-side record of one registered worker.
type fabWorker struct {
	id       string
	name     string
	process  string // stable across re-registrations; stats dedupe key
	window   int
	leased   map[string]*shard // by RunKey
	lastSeen time.Time
	lastSeq  int64     // highest PollRequest.Seq processed
	stats    exp.Stats // absolute per-process counters, as of the last poll
}

// maxStats merges two absolute counter snapshots of one process
// (fieldwise max: the counters are monotonic, so the larger value is
// simply the later observation).
func maxStats(a, b exp.Stats) exp.Stats {
	m := func(x, y uint64) uint64 {
		if x > y {
			return x
		}
		return y
	}
	return exp.Stats{
		Simulations: m(a.Simulations, b.Simulations),
		CacheHits:   m(a.CacheHits, b.CacheHits),
		CacheMisses: m(a.CacheMisses, b.CacheMisses),
		RemoteRuns:  m(a.RemoteRuns, b.RemoteRuns),
	}
}

// shard is one unique simulation in flight through the fabric.
type shard struct {
	id        int
	run       WireRun
	owner     *fabWorker // nil while pending
	completed bool
	res       core.Result
	err       error
	done      chan struct{}

	// deadline, when non-zero, is the job-level deadline: a pending
	// shard past it is cancelled by the janitor. Leased shards always
	// run to completion — in-flight work is never shed.
	deadline time.Time

	// resumedProc, when non-empty, reserves a shard rebuilt from a
	// journaled grant for the worker process that held the lease before
	// the coordinator restarted: that process is still simulating the
	// key and will ship the result after it re-registers. The
	// reservation holds until resumedUntil, then the shard re-queues
	// normally (the prior owner died too).
	resumedProc  string
	resumedUntil time.Time
}

// errNoWorkers is the internal unavailability signal: the dispatcher
// maps it to exp.ErrBackendUnavailable so the Runner simulates locally.
var errNoWorkers = errors.New("service: no live fabric workers")

// newFabricState builds a fabric wired to the durable layer: the shared
// DiskCache, the journal, and the granted-but-uncompleted shards
// recovered from it. Each recovered grant becomes a resumed shard
// reserved for its prior owner process; any replay that recovered state
// also arms the no-workers grace window so re-executed jobs wait for
// the fleet to re-register instead of failing over to local simulation.
func newFabricState(leaseTTL, poll time.Duration, cache *DiskCache, jnl *journal, grants []grantRecord) *fabric {
	f := &fabric{
		leaseTTL:    leaseTTL,
		poll:        poll,
		cache:       cache,
		jnl:         jnl,
		workers:     make(map[string]*fabWorker),
		shards:      make(map[string]*shard),
		departed:    make(map[string]exp.Stats),
		stop:        make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	now := time.Now()
	for _, g := range grants {
		if cache != nil {
			if _, ok := cache.Get(g.Key); ok {
				// Already completed and persisted; the re-executed job
				// will hit the cache. Resolve the stale grant record.
				if jnl != nil {
					jnl.append(journalRecord{T: "complete", Key: g.Key})
				}
				continue
			}
		}
		f.nextSID++
		f.shards[g.Key] = &shard{
			id:           f.nextSID,
			run:          WireRun{Key: g.Key}, // Cfg restored when a waiter joins
			done:         make(chan struct{}),
			resumedProc:  g.Proc,
			resumedUntil: now.Add(leaseTTL),
		}
		f.shardsTotal++
		f.resumed++
	}
	go f.janitor()
	return f
}

// armGrace opens the no-workers grace window: until it expires, a
// coordinator with zero registered workers queues work instead of
// reporting errNoWorkers (which would fail it over to local
// simulation). Called once, before any job can reach execute.
func (f *fabric) armGrace() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.graceArmed = true
	f.graceUntil = time.Now().Add(f.leaseTTL)
}

// graceActiveLocked reports whether the restart grace window is open.
func (f *fabric) graceActiveLocked() bool {
	return f.graceArmed && time.Now().Before(f.graceUntil)
}

// recovering reports whether the fabric is still waiting for its fleet
// to re-register after a restart (the readiness probe's input).
func (f *fabric) recovering() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.workers) == 0 && f.graceActiveLocked()
}

// close fails every in-flight shard with errNoWorkers (waiters fall
// back to local simulation, letting Server.Close drain its jobs) and
// stops the janitor.
func (f *fabric) close() {
	f.mu.Lock()
	if f.closed || f.frozen {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.graceArmed = false
	f.failAllLocked()
	f.mu.Unlock()
	close(f.stop)
	<-f.janitorDone
}

// freeze is the kill -9 simulation used by the restart and chaos tests:
// the janitor stops and every mutation is rejected, but — unlike close —
// no shard is resolved and no waiter is woken, exactly as if the
// process had died. Blocked waiters stay blocked forever; the "process"
// is gone.
func (f *fabric) freeze() {
	f.mu.Lock()
	if f.closed || f.frozen {
		f.mu.Unlock()
		return
	}
	f.frozen = true
	f.mu.Unlock()
	close(f.stop)
	<-f.janitorDone
}

// janitor periodically expires workers whose heartbeat (poll) is older
// than the lease TTL (re-queueing their leased shards), re-queues
// resumed shards whose prior owner never returned, cancels pending
// shards past their deadline, and closes out the restart grace window.
// The tick is leaseTTL/4 with ±50% jitter so a fleet of coordinators
// never thunders in lockstep, re-armed per iteration and stopped
// cleanly on close/freeze (no tick can fire after stop).
func (f *fabric) janitor() {
	defer close(f.janitorDone)
	base := f.leaseTTL / 4
	if base <= 0 {
		base = time.Second
	}
	jitter := func() time.Duration {
		return base/2 + time.Duration(rand.Int63n(int64(base)))
	}
	t := time.NewTimer(jitter())
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case now := <-t.C:
			f.sweepExpired(now)
			t.Reset(jitter())
		}
	}
}

// sweepExpired is one janitor pass.
func (f *fabric) sweepExpired(now time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.frozen {
		return
	}
	for _, w := range f.workers {
		if now.Sub(w.lastSeen) > f.leaseTTL {
			f.removeWorkerLocked(w)
		}
	}
	for _, sh := range f.shards {
		if sh.completed || sh.owner != nil {
			continue
		}
		if sh.resumedProc != "" {
			// Reserved for a pre-restart owner; give it up only when the
			// reservation expires (the prior process died too).
			if now.After(sh.resumedUntil) {
				sh.resumedProc = ""
				f.requeueLocked(sh)
			}
			continue
		}
		if !sh.deadline.IsZero() && now.After(sh.deadline) {
			// Deadline passed while still pending: cancel. Leased shards
			// never take this path — in-flight work is never shed.
			f.deadlineCancelled++
			f.completeLocked(sh, core.Result{}, fmt.Errorf("service: shard cancelled: %w", exp.ErrDeadlineExceeded))
		}
	}
	if f.graceArmed && now.After(f.graceUntil) {
		f.graceArmed = false
		if len(f.workers) == 0 {
			// The fleet never came back: fall over to local simulation.
			f.failAllLocked()
		}
	}
}

// requeueLocked returns a pending shard to the front of the queue and
// journals the lease release.
func (f *fabric) requeueLocked(sh *shard) {
	f.queue = append([]*shard{sh}, f.queue...)
	f.requeued++
	f.jnl.append(journalRecord{T: "requeue", Key: sh.run.Key})
}

// removeWorkerLocked drops a worker (death or deregistration),
// re-queueing its leased shards at the front of the pending queue and
// folding its last-reported stats into the departed accumulator. If it
// was the last worker, every in-flight shard is failed with
// errNoWorkers so waiters fall back to local simulation — unless the
// restart grace window is open, in which case the shards stay queued
// for the fleet that is still re-registering.
func (f *fabric) removeWorkerLocked(w *fabWorker) {
	delete(f.workers, w.id)
	f.departed[w.process] = maxStats(f.departed[w.process], w.stats)
	for _, sh := range w.leased {
		sh.owner = nil
		f.requeueLocked(sh)
	}
	w.leased = nil
	if len(f.workers) == 0 && !f.graceActiveLocked() {
		f.failAllLocked()
	}
}

// failAllLocked completes every live shard with errNoWorkers.
func (f *fabric) failAllLocked() {
	live := make([]*shard, 0, len(f.shards))
	for _, sh := range f.shards {
		live = append(live, sh)
	}
	for _, sh := range live {
		f.completeLocked(sh, core.Result{}, errNoWorkers)
	}
	f.queue = nil
}

// completeLocked finishes a shard exactly once: records the outcome,
// persists a successful result straight into the disk cache (so a
// result arriving before any local waiter — possible only after a
// restart — still dedupes future executions), journals the resolution,
// releases the lease, removes it from the in-flight table, and wakes
// the waiter.
func (f *fabric) completeLocked(sh *shard, res core.Result, err error) {
	if sh.completed {
		return
	}
	sh.completed = true
	sh.res, sh.err = res, err
	if sh.owner != nil {
		delete(sh.owner.leased, sh.run.Key)
		sh.owner = nil
	}
	delete(f.shards, sh.run.Key)
	switch {
	case err == nil:
		f.completed++
		if f.cache != nil {
			f.cache.Put(sh.run.Key, res)
		}
	case !errors.Is(err, errNoWorkers):
		f.failed++
	}
	f.jnl.append(journalRecord{T: "complete", Key: sh.run.Key})
	close(sh.done)
}

// execute dispatches one run through the fabric and blocks until a
// worker completes it (or the fleet disappears). It is the body of the
// coordinator's exp.Backend: called at most once per RunKey at a time,
// because every caller goes through a Runner's singleflight memo first.
func (f *fabric) execute(run WireRun) (core.Result, error) {
	f.mu.Lock()
	if f.frozen {
		// The process is "dead" (restart test): nothing resolves, ever.
		f.mu.Unlock()
		select {}
	}
	if f.closed || (len(f.workers) == 0 && !f.graceActiveLocked()) {
		f.mu.Unlock()
		return core.Result{}, errNoWorkers
	}
	var deadline time.Time
	if f.deadlineFn != nil {
		deadline = f.deadlineFn()
	}
	sh, ok := f.shards[run.Key]
	if !ok {
		f.nextSID++
		sh = &shard{id: f.nextSID, run: run, done: make(chan struct{}), deadline: deadline}
		f.shards[run.Key] = sh
		f.queue = append(f.queue, sh)
		f.shardsTotal++
	} else {
		if sh.run.Workload == "" {
			// A resumed shard knows only its RunKey until the re-executed
			// job re-derives the full run; fill it in so a post-expiry
			// grant ships a complete WireRun.
			sh.run = run
		}
		// Two jobs sharing one shard: cancel only when every waiter has
		// a deadline, at the latest of them. A deadline-less waiter pins
		// the shard (in-flight work is never shed for a live job).
		if deadline.IsZero() || sh.deadline.IsZero() {
			sh.deadline = time.Time{}
		} else if deadline.After(sh.deadline) {
			sh.deadline = deadline
		}
	}
	f.mu.Unlock()
	<-sh.done
	return sh.res, sh.err
}

// register adds a worker to the fleet and returns its lease terms.
// process is the worker's non-empty process id; the HTTP handler
// rejects a registration without one.
func (f *fabric) register(name, process string, window int) (RegisterResponse, error) {
	if window < 1 {
		window = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.frozen {
		return RegisterResponse{}, errNoWorkers
	}
	f.nextWID++
	f.workersSeen++
	w := &fabWorker{
		id:       fmt.Sprintf("worker-%d", f.nextWID),
		name:     name,
		process:  process,
		window:   window,
		leased:   make(map[string]*shard),
		lastSeen: time.Now(),
	}
	if w.name == "" {
		w.name = w.id
	}
	f.workers[w.id] = w
	// Adopt any resumed shards reserved for this worker process: its
	// pre-restart registration held their leases, and the process is
	// still simulating them (or holds their finished results in its
	// outbox). Re-leasing them to it keeps the reservation visible to
	// lease expiry and window accounting.
	for _, sh := range f.shards {
		if sh.resumedProc == process && sh.owner == nil && !sh.completed {
			sh.resumedProc = ""
			sh.owner = w
			w.leased[sh.run.Key] = sh
			f.jnl.append(journalRecord{T: "grant", Key: sh.run.Key, Proc: process})
		}
	}
	return RegisterResponse{
		WorkerID:   w.id,
		LeaseTTLMs: f.leaseTTL.Milliseconds(),
		PollMs:     f.poll.Milliseconds(),
	}, nil
}

// errUnknownWorker tells a polling worker its registration is gone
// (expired or coordinator restart); the worker re-registers.
var errUnknownWorker = errors.New("service: unknown worker")

// deregister removes a worker gracefully (its drained lease set should
// be empty; anything still leased is re-queued).
func (f *fabric) deregister(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.workers[id]
	if !ok {
		return errUnknownWorker
	}
	f.removeWorkerLocked(w)
	return nil
}

// pollWorker is one heartbeat round trip: ingest the worker's finished
// results, refresh its lease, reconcile the lease picture against what
// the worker reports actually holding, and grant it new shards up to
// the free slice of its window.
//
// Req.Seq orders a worker's polls: a request whose Seq was already
// processed is a duplicated delivery (retry or injected fault) — its
// results are still ingested (idempotent under the exactly-once guard)
// but it neither reconciles nor receives grants, so a stale duplicate
// racing a fresh poll can never requeue or double-lease shards. The
// HTTP handler rejects polls without a Seq of at least 1.
func (f *fabric) pollWorker(req PollRequest) (PollResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.workers[req.WorkerID]
	if !ok || f.closed || f.frozen {
		return PollResponse{}, errUnknownWorker
	}
	w.lastSeen = time.Now()
	w.stats = req.Stats
	fresh := req.Seq > w.lastSeq
	if fresh {
		w.lastSeq = req.Seq
	}

	for _, r := range req.Results {
		sh, ok := f.shards[r.Key]
		if !ok || sh.completed {
			// Completed by someone else, or the lease was re-queued and
			// finished before this late report arrived: drop it. The
			// shard's recorded result is already authoritative.
			f.staleResults++
			continue
		}
		if r.Error != "" {
			f.completeLocked(sh, core.Result{}, fmt.Errorf("worker %s: %s", w.name, r.Error))
			continue
		}
		if r.Result == nil {
			f.completeLocked(sh, core.Result{}, fmt.Errorf("worker %s: result missing for %s", w.name, r.Key))
			continue
		}
		f.completeLocked(sh, *r.Result, nil)
	}

	var resp PollResponse
	resp.PollMs = f.poll.Milliseconds()
	if !fresh {
		return resp, nil
	}

	// Reconcile: a shard leased to this worker that it does not report
	// holding was granted in a response the worker never received
	// (dropped or duplicated delivery). Requeue it now instead of
	// waiting a full lease TTL.
	held := make(map[string]bool, len(req.Holding))
	for _, k := range req.Holding {
		held[k] = true
	}
	for key, sh := range w.leased {
		if !held[key] {
			delete(w.leased, key)
			sh.owner = nil
			f.requeueLocked(sh)
		}
	}

	want := req.Want
	if free := w.window - len(w.leased); want > free {
		want = free
	}
	var deferred []*shard // resumed shards not yet re-derived: ungrantable
	for want > 0 && len(f.queue) > 0 {
		sh := f.queue[0]
		f.queue = f.queue[1:]
		if sh.completed || sh.owner != nil {
			continue // lazily dropped (stale queue entry)
		}
		if sh.run.Workload == "" {
			deferred = append(deferred, sh)
			continue
		}
		sh.owner = w
		w.leased[sh.run.Key] = sh
		f.jnl.append(journalRecord{T: "grant", Key: sh.run.Key, Proc: w.process})
		resp.Shards = append(resp.Shards, WireShard{ID: sh.id, Run: sh.run})
		want--
	}
	if len(deferred) > 0 {
		f.queue = append(deferred, f.queue...)
	}
	return resp, nil
}

// snapshot captures the fabric's observable state for /metrics and
// /v1/fabric.
type fabricSnapshot struct {
	WorkersLive       int
	WorkersSeen       uint64
	Pending           int
	Leased            int
	ShardsTotal       uint64
	Completed         uint64
	Failed            uint64
	Requeued          uint64
	StaleResults      uint64
	Resumed           uint64
	DeadlineCancelled uint64
	WorkerStats       exp.Stats // departed + last report of every live worker
	Workers           []FabricWorkerStatus
}

func (f *fabric) snapshot() fabricSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := fabricSnapshot{
		WorkersLive:       len(f.workers),
		WorkersSeen:       f.workersSeen,
		ShardsTotal:       f.shardsTotal,
		Completed:         f.completed,
		Failed:            f.failed,
		Requeued:          f.requeued,
		StaleResults:      f.staleResults,
		Resumed:           f.resumed,
		DeadlineCancelled: f.deadlineCancelled,
	}
	// Aggregate stats per worker process (fieldwise max of the departed
	// record and any live registration), then sum across processes —
	// re-registration can never double-count.
	perProcess := make(map[string]exp.Stats, len(f.departed)+len(f.workers))
	for k, st := range f.departed {
		perProcess[k] = st
	}
	leased := 0
	for _, w := range f.workers {
		leased += len(w.leased)
		perProcess[w.process] = maxStats(perProcess[w.process], w.stats)
		s.Workers = append(s.Workers, FabricWorkerStatus{
			ID:         w.id,
			Name:       w.name,
			Window:     w.window,
			Leased:     len(w.leased),
			LastSeenMs: time.Since(w.lastSeen).Milliseconds(),
			Stats:      w.stats,
		})
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].ID < s.Workers[j].ID })
	for _, st := range perProcess {
		s.WorkerStats = s.WorkerStats.Add(st)
	}
	s.Leased = leased
	for _, sh := range f.shards {
		if !sh.completed && sh.owner == nil {
			s.Pending++
		}
	}
	return s
}

// liveGrants reports every lease (and unexpired resumed reservation)
// for the shutdown snapshot.
func (f *fabric) liveGrants() []grantRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []grantRecord
	for key, sh := range f.shards {
		if sh.completed {
			continue
		}
		switch {
		case sh.owner != nil:
			out = append(out, grantRecord{Key: key, Proc: sh.owner.process})
		case sh.resumedProc != "":
			out = append(out, grantRecord{Key: key, Proc: sh.resumedProc})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// fabricBackend adapts the fabric dispatcher to exp.Backend for the
// coordinator's own runners.
type fabricBackend struct{ f *fabric }

func (b fabricBackend) Execute(key string, cfg arch.Config, spec workload.Spec, opts workload.Options) (core.Result, error) {
	res, err := b.f.execute(WireRun{
		Key:       key,
		Cfg:       cfg,
		Workload:  spec.Name,
		IterScale: opts.IterScale,
		MaxCTAs:   opts.MaxCTAs,
	})
	if errors.Is(err, errNoWorkers) {
		return core.Result{}, exp.ErrBackendUnavailable
	}
	return res, err
}

// --- wire types ---

// WireRun is the canonical wire form of one simulation: its RunKey
// (content address), the full architectural configuration, the Table 2
// workload name, and the workload scaling options. A worker — or the
// coordinator handling POST /v1/fabric/runs — can re-derive the RunKey
// from the other fields, which is how version skew between binaries
// (differing cache schemas, new Config fields) is detected instead of
// silently producing mismatched results.
type WireRun struct {
	Key       string      `json:"key"`
	Cfg       arch.Config `json:"cfg"`
	Workload  string      `json:"workload"`
	IterScale float64     `json:"iter_scale"`
	MaxCTAs   int         `json:"max_ctas"`
}

// RegisterRequest is the body of POST /v1/fabric/workers.
type RegisterRequest struct {
	// Name is the worker's display name (default: its assigned ID).
	Name string `json:"name,omitempty"`
	// Process is a stable identifier for the worker process across
	// re-registrations (lease expiry + re-register): the coordinator
	// keys stats accounting by it so cumulative counters reported
	// under a new registration supersede, not add to, the old one's.
	// Required: a registration without it is rejected with 400.
	Process string `json:"process"`
	// Window is the maximum number of shards the worker wants leased at
	// once (its in-flight simulation budget).
	Window int `json:"window"`
}

// RegisterResponse carries the assigned worker identity and the
// coordinator's lease terms.
type RegisterResponse struct {
	WorkerID   string `json:"worker_id"`
	LeaseTTLMs int64  `json:"lease_ttl_ms"`
	PollMs     int64  `json:"poll_ms"`
}

// WireShard is one leased unit of work.
type WireShard struct {
	ID  int     `json:"id"`
	Run WireRun `json:"run"`
}

// ShardResult reports one finished shard back to the coordinator.
// Exactly one of Result and Error is set.
type ShardResult struct {
	ShardID int          `json:"shard_id"`
	Key     string       `json:"key"`
	Result  *core.Result `json:"result,omitempty"`
	Error   string       `json:"error,omitempty"`
}

// PollRequest is the body of POST /v1/fabric/poll: the worker's
// heartbeat, finished results, current run counters, and how many new
// shards it can accept.
type PollRequest struct {
	WorkerID string `json:"worker_id"`
	// Seq orders this worker's polls (strictly increasing per process,
	// from 1; a poll without it is rejected with 400). The coordinator
	// answers an already-seen Seq — a duplicated or retried delivery —
	// with results ingested but no grants and no reconciliation.
	Seq  int64 `json:"seq"`
	Want int   `json:"want"`
	// Holding lists every RunKey the worker still owes a result for
	// (simulating or queued in its outbox). The coordinator requeues
	// leases absent from it: they were granted in a reply the worker
	// never received.
	Holding []string      `json:"holding,omitempty"`
	Results []ShardResult `json:"results,omitempty"`
	Stats   exp.Stats     `json:"stats"`
}

// PollResponse grants shards and echoes the advertised poll interval.
type PollResponse struct {
	Shards []WireShard `json:"shards,omitempty"`
	PollMs int64       `json:"poll_ms"`
}

// FabricWorkerStatus is one worker row of GET /v1/fabric.
type FabricWorkerStatus struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	Window     int       `json:"window"`
	Leased     int       `json:"leased"`
	LastSeenMs int64     `json:"last_seen_ms"`
	Stats      exp.Stats `json:"stats"`
}

// FabricStatus is the GET /v1/fabric payload: the live fleet plus the
// shard accounting the acceptance checks observe.
type FabricStatus struct {
	Workers           []FabricWorkerStatus `json:"workers"`
	PendingShards     int                  `json:"pending_shards"`
	LeasedShards      int                  `json:"leased_shards"`
	ShardsTotal       uint64               `json:"shards_total"`
	ShardsCompleted   uint64               `json:"shards_completed"`
	ShardsFailed      uint64               `json:"shards_failed"`
	ShardsRequeued    uint64               `json:"shards_requeued"`
	ShardsResumed     uint64               `json:"shards_resumed"`
	StaleResults      uint64               `json:"stale_results"`
	DeadlineCancelled uint64               `json:"deadline_cancelled"`
	WorkerSimulations uint64               `json:"worker_simulations"`
	AdmissionRejected uint64               `json:"admission_rejected"`
	JournalReplays    uint64               `json:"journal_replays"`
	JournalBytes      int64                `json:"journal_bytes"`
}

// --- coordinator HTTP handlers ---

func (s *Server) handleFabricRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeAPIError(w, http.StatusBadRequest, codeInvalidArgument, "bad register request: %v", err)
		return
	}
	if req.Process == "" {
		writeAPIError(w, http.StatusBadRequest, codeInvalidArgument, "register request without a process id")
		return
	}
	resp, err := s.fabric.register(req.Name, req.Process, req.Window)
	if err != nil {
		writeAPIError(w, http.StatusServiceUnavailable, codeDraining, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleFabricDeregister(w http.ResponseWriter, r *http.Request) {
	if err := s.fabric.deregister(r.PathValue("id")); err != nil {
		writeAPIError(w, http.StatusGone, codeUnknownWorker, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deregistered"})
}

func (s *Server) handleFabricPoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeAPIError(w, http.StatusBadRequest, codeInvalidArgument, "bad poll request: %v", err)
		return
	}
	if req.Seq < 1 {
		writeAPIError(w, http.StatusBadRequest, codeInvalidArgument, "poll request without a seq of at least 1")
		return
	}
	resp, err := s.fabric.pollWorker(req)
	if err != nil {
		// 410 tells the worker its registration is gone; it re-registers.
		writeAPIError(w, http.StatusGone, codeUnknownWorker, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFabricStatus(w http.ResponseWriter, r *http.Request) {
	snap := s.fabric.snapshot()
	st := FabricStatus{
		Workers:           snap.Workers,
		PendingShards:     snap.Pending,
		LeasedShards:      snap.Leased,
		ShardsTotal:       snap.ShardsTotal,
		ShardsCompleted:   snap.Completed,
		ShardsFailed:      snap.Failed,
		ShardsRequeued:    snap.Requeued,
		ShardsResumed:     snap.Resumed,
		StaleResults:      snap.StaleResults,
		DeadlineCancelled: snap.DeadlineCancelled,
		WorkerSimulations: snap.WorkerStats.Simulations,
		AdmissionRejected: s.admission.rejectedTotal(),
		JournalReplays:    s.jnl.replayCount(),
		JournalBytes:      s.jnl.bytes(),
	}
	if st.Workers == nil {
		st.Workers = []FabricWorkerStatus{}
	}
	writeJSON(w, http.StatusOK, st)
}

// handleFabricRun executes one run for a remote client (numagpu -remote
// via FabricClient) and replies with its core.Result. It verifies the
// RunKey against one derived here, then runs it on the Runner of the
// run's workload scaling, so remote runs share the memo, the disk cache
// and the worker fleet with every other source of work: a retried or
// duplicated POST joins the execution already under way.
func (s *Server) handleFabricRun(w http.ResponseWriter, r *http.Request) {
	var run WireRun
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&run); err != nil {
		writeAPIError(w, http.StatusBadRequest, codeInvalidArgument, "bad run request: %v", err)
		return
	}
	spec, ok := workload.ByName(run.Workload)
	if !ok {
		writeAPIError(w, http.StatusBadRequest, codeInvalidArgument, "unknown workload %q", run.Workload)
		return
	}
	if err := run.Cfg.Validate(); err != nil {
		writeAPIError(w, http.StatusBadRequest, codeInvalidArgument, "invalid config: %v", err)
		return
	}
	runner := s.runner.Scaled(run.IterScale, run.MaxCTAs)
	if want := runner.RunKey(run.Cfg, spec); want != run.Key {
		// Client and coordinator disagree on the content address:
		// mixed simulator versions. Refusing keeps the cache coherent.
		writeAPIError(w, http.StatusConflict, codeVersionSkew, "run key mismatch (client %q, coordinator %q): simulator version skew?", run.Key, want)
		return
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		writeAPIError(w, http.StatusServiceUnavailable, codeDraining, "%v", errClosing)
		return
	}
	s.wg.Add(1) // Close waits for in-flight remote runs too
	s.remoteActive++
	s.mu.Unlock()
	res, err := func() (res core.Result, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("%v", p)
			}
		}()
		return runner.Run(run.Cfg, spec), nil
	}()
	s.mu.Lock()
	s.remoteActive--
	s.mu.Unlock()
	s.wg.Done()
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, codeJobFailed, "run failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
