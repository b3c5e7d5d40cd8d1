package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/workload"
)

// WorkerConfig sizes one fabric worker (numagpud -worker).
type WorkerConfig struct {
	// CoordinatorURL is the coordinator's base URL,
	// e.g. "http://127.0.0.1:8377".
	CoordinatorURL string
	// Name is the worker's display name (default "host-pid").
	Name string
	// Window is the number of simulations the worker runs in flight
	// (default GOMAXPROCS); the coordinator never leases it more shards
	// than this.
	Window int
	// Poll is the fallback poll interval used until the coordinator
	// advertises one (default 250ms).
	Poll time.Duration
	// Mirror, when non-nil, receives one exp.RunLog line per run the
	// worker completes.
	Mirror io.Writer
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// Worker is the pull half of the sweep fabric: it registers with a
// coordinator, polls for leased shards (each poll doubling as the
// heartbeat that keeps its leases alive), simulates them locally on its
// own Runner (one memo and one set of counters for every workload
// scaling the coordinator leases), and ships results — tagged with
// their RunKey — back on the next poll. It keeps no persistent cache: the coordinator's
// DiskCache is the single source of truth, and a worker restart costs
// at most the re-execution of its in-flight shards.
//
// Run blocks until the context is cancelled; cancellation is a graceful
// drain — the worker stops accepting shards, finishes what it holds,
// ships the final results, and deregisters so the coordinator re-leases
// nothing.
type Worker struct {
	cfg    WorkerConfig
	client *Client
	runner *exp.Runner

	// process identifies this worker process across re-registrations
	// (lease expiry + 410 + re-register): the coordinator keys its
	// stats accounting by it, so the absolute counters a re-registered
	// worker reports supersede — never add to — what its previous
	// registration already reported.
	process string

	mu       sync.Mutex
	id       string
	inflight int
	running  map[string]bool // RunKeys currently simulating
	results  []ShardResult

	// seq numbers every poll so the coordinator can ignore duplicate or
	// reordered deliveries (chaos transports duplicate requests); it also
	// lets the coordinator reconcile leases against Holding.
	seq      atomic.Int64
	draining atomic.Bool

	wake   chan struct{} // buffered; poked when a shard finishes
	killed chan struct{} // test hook: abrupt death, no drain

	// beforeRun, when non-nil, is called before executing each leased
	// shard (test hook for deterministic mid-sweep failure injection).
	beforeRun func(key string)
}

// NewWorker builds a worker for the coordinator at cfg.CoordinatorURL.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Window < 1 {
		cfg.Window = runtime.GOMAXPROCS(0)
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 250 * time.Millisecond
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &Worker{
		cfg:     cfg,
		process: fmt.Sprintf("%s/%d/%d", cfg.Name, os.Getpid(), workerSeq.Add(1)),
		client:  &Client{BaseURL: cfg.CoordinatorURL, HTTPClient: cfg.HTTPClient},
		running: make(map[string]bool),
		wake:    make(chan struct{}, 1),
		killed:  make(chan struct{}),
	}
	var base exp.Options
	if cfg.Mirror != nil {
		base.OnResult = exp.RunLog(cfg.Mirror)
	}
	w.runner = exp.NewRunner(base)
	return w
}

// Stats reports the worker's run counters.
func (w *Worker) Stats() exp.Stats { return w.runner.Stats() }

// Name reports the worker's display name.
func (w *Worker) Name() string { return w.cfg.Name }

// Inflight reports how many leased shards are currently simulating.
func (w *Worker) Inflight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inflight
}

// Run registers with the coordinator and serves the poll loop until ctx
// is cancelled, then drains: finishes in-flight shards, ships their
// results, and deregisters. It returns nil on a clean drain.
func (w *Worker) Run(ctx context.Context) error {
	poll, err := w.register(ctx)
	if err != nil {
		return err
	}
	draining := false
	failures := 0
	for {
		if !draining && ctx.Err() != nil {
			draining = true
			w.draining.Store(true)
		}
		req := w.buildPoll(draining)
		var resp PollResponse
		err := w.client.do("POST", "/v1/fabric/poll", req, &resp)
		switch {
		case err == nil:
			failures = 0
			w.clearShipped(len(req.Results))
			if resp.PollMs > 0 {
				poll = time.Duration(resp.PollMs) * time.Millisecond
			}
			for _, sh := range resp.Shards {
				w.startShard(sh)
			}
		case isGone(err):
			// The coordinator forgot us (lease expiry, restart). While
			// draining there is nothing useful left to say; otherwise
			// re-register and carry on — results are keyed by RunKey,
			// so work finished under the old identity still lands.
			if draining && w.idle() {
				return nil
			}
			if _, rerr := w.reregister(ctx); rerr != nil {
				return rerr
			}
			continue
		default:
			// Transient coordinator trouble: keep results queued and
			// retry. Give up only when asked to stop.
			failures++
			if draining && failures > 20 {
				return fmt.Errorf("service: worker drain abandoned after repeated poll failures: %w", err)
			}
		}
		if draining && w.idle() {
			w.deregister()
			return nil
		}
		select {
		case <-w.killed:
			return errors.New("service: worker killed")
		case <-w.wake:
		case <-time.After(poll):
		case <-ctx.Done():
			// First cancellation flips to draining on the next
			// iteration; the loop keeps spinning until idle.
		}
	}
}

// register obtains a worker identity, retrying until ctx is cancelled.
func (w *Worker) register(ctx context.Context) (time.Duration, error) {
	poll := w.cfg.Poll
	for {
		var resp RegisterResponse
		err := w.client.do("POST", "/v1/fabric/workers", RegisterRequest{Name: w.cfg.Name, Window: w.cfg.Window, Process: w.process}, &resp)
		if err == nil {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.mu.Unlock()
			if resp.PollMs > 0 {
				poll = time.Duration(resp.PollMs) * time.Millisecond
			}
			return poll, nil
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("service: worker registration: %w", err)
		case <-w.killed:
			return 0, errors.New("service: worker killed")
		case <-time.After(poll):
		}
	}
}

func (w *Worker) reregister(ctx context.Context) (time.Duration, error) {
	w.mu.Lock()
	w.id = ""
	w.mu.Unlock()
	return w.register(ctx)
}

func (w *Worker) deregister() {
	w.mu.Lock()
	id := w.id
	w.mu.Unlock()
	if id == "" {
		return
	}
	w.client.do("DELETE", "/v1/fabric/workers/"+id, nil, nil)
}

// buildPoll snapshots the poll request: a copy of the finished-result
// outbox (cleared via clearShipped only after the poll succeeds, so a
// failed poll loses nothing), the current run counters (taken after the
// results, so any shipped result's simulation is covered by this or an
// earlier report), and Want — the free slice of the window, zero while
// draining so no new work is leased.
func (w *Worker) buildPoll(draining bool) PollRequest {
	w.mu.Lock()
	defer w.mu.Unlock()
	req := PollRequest{
		WorkerID: w.id,
		Seq:      w.seq.Add(1),
		Results:  append([]ShardResult(nil), w.results...),
		Stats:    w.runner.Stats(),
	}
	// Holding enumerates every RunKey this worker still owes the
	// coordinator — simulating or queued in the outbox — so the
	// coordinator can re-queue leases lost to a dropped response.
	for key := range w.running {
		req.Holding = append(req.Holding, key)
	}
	for _, r := range w.results {
		req.Holding = append(req.Holding, r.Key)
	}
	if !draining {
		// Results shipped in this request release their leases during
		// the same round trip (the coordinator ingests before
		// granting), so only genuinely in-flight work occupies the
		// window.
		req.Want = w.cfg.Window - w.inflight
		if req.Want < 0 {
			req.Want = 0
		}
	}
	return req
}

// workerSeq disambiguates multiple Workers in one OS process (tests).
var workerSeq atomic.Int64

// clearShipped drops results that a successful poll delivered.
func (w *Worker) clearShipped(n int) {
	w.mu.Lock()
	w.results = w.results[n:]
	w.mu.Unlock()
}

// idle reports whether nothing is simulating and nothing is waiting to
// be shipped.
func (w *Worker) idle() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inflight == 0 && len(w.results) == 0
}

// startShard begins simulating one leased shard on its own goroutine.
func (w *Worker) startShard(sh WireShard) {
	w.mu.Lock()
	w.inflight++
	w.running[sh.Run.Key] = true
	w.mu.Unlock()
	go func() {
		res := w.runShard(sh)
		w.mu.Lock()
		w.inflight--
		delete(w.running, sh.Run.Key)
		w.results = append(w.results, res)
		w.mu.Unlock()
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}()
}

// runShard executes one shard, converting panics (invalid configs) and
// version skew into shard errors the coordinator fails deterministically.
func (w *Worker) runShard(sh WireShard) (out ShardResult) {
	out = ShardResult{ShardID: sh.ID, Key: sh.Run.Key}
	defer func() {
		if p := recover(); p != nil {
			out.Result = nil
			out.Error = fmt.Sprintf("simulation panic: %v", p)
		}
	}()
	if w.beforeRun != nil {
		w.beforeRun(sh.Run.Key)
	}
	spec, ok := workload.ByName(sh.Run.Workload)
	if !ok {
		out.Error = fmt.Sprintf("unknown workload %q", sh.Run.Workload)
		return out
	}
	runner := w.runner.Scaled(sh.Run.IterScale, sh.Run.MaxCTAs)
	if want := runner.RunKey(sh.Run.Cfg, spec); want != sh.Run.Key {
		out.Error = fmt.Sprintf("run key mismatch (coordinator %q, worker %q): simulator version skew?", sh.Run.Key, want)
		return out
	}
	res := runner.Run(sh.Run.Cfg, spec)
	out.Result = &res
	return out
}

// kill stops the worker abruptly — no drain, no deregistration — so
// tests can model a crashed worker whose leases must expire.
func (w *Worker) kill() { close(w.killed) }

// isGone reports whether an API error is HTTP 410 (unknown worker).
func isGone(err error) bool {
	var ae *Error
	return errors.As(err, &ae) && ae.Status == http.StatusGone
}

// Handler serves the worker's own observability surface: liveness and
// readiness probes plus a small Prometheus /metrics with its run
// counters. Readiness goes false the moment a drain starts, so a load
// balancer (or the operator) sees the worker leave before it actually
// disappears.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	live := func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, map[string]string{"status": "ok", "worker": w.cfg.Name})
	}
	mux.HandleFunc("GET /healthz", live)
	mux.HandleFunc("GET /healthz/live", live)
	mux.HandleFunc("GET /healthz/ready", func(rw http.ResponseWriter, r *http.Request) {
		killed := false
		select {
		case <-w.killed:
			killed = true
		default:
		}
		if w.draining.Load() || killed {
			writeJSON(rw, http.StatusServiceUnavailable, map[string]string{"status": "draining", "worker": w.cfg.Name})
			return
		}
		writeJSON(rw, http.StatusOK, map[string]string{"status": "ready", "worker": w.cfg.Name})
	})
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
		st := w.Stats()
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		p := func(format string, args ...any) { fmt.Fprintf(rw, format, args...) }
		p("# HELP numagpud_worker_simulations_total Simulations executed by this worker.\n")
		p("# TYPE numagpud_worker_simulations_total counter\n")
		p("numagpud_worker_simulations_total %d\n", st.Simulations)
		p("# HELP numagpud_worker_inflight Leased shards currently simulating.\n")
		p("# TYPE numagpud_worker_inflight gauge\n")
		p("numagpud_worker_inflight %d\n", w.Inflight())
	})
	return mux
}
