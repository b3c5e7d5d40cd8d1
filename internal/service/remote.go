package service

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// FabricClient implements exp.Backend over HTTP against a numagpud
// coordinator: each Execute is one POST /v1/fabric/runs, which the
// coordinator answers with the run's result once it has it. The POST is
// idempotent by the run's content address — a retry or a duplicate
// delivery joins the execution already under way in the coordinator's
// memo. Set as exp.Options.Backend — as `numagpu -remote URL` does — it
// drives any experiment through the coordinator's memo, disk cache,
// and worker fleet while the client keeps full responsibility for
// request order and table rendering, so the output is byte-identical
// to a local run.
//
// A FabricClient never returns exp.ErrBackendUnavailable: a client
// that asked for remote execution should fail loudly when the
// coordinator is unreachable, not silently simulate locally. (The
// coordinator itself falls back to local simulation when it has no
// workers, so a reachable coordinator always completes the run.)
//
// Failure handling is deliberately layered:
//
//   - transport errors and shed replies (429, 503) retry with jittered
//     exponential backoff, honoring the server's Retry-After hint, up
//     to the Retries budget — a coordinator restart or overload is
//     ridden out, and the jitter keeps a whole sweep's runs from
//     retrying in lockstep;
//   - any other HTTP error reply (400, 409, 500) is authoritative and
//     fails the run immediately instead of burning the budget on an
//     answer that will not change;
//   - exhausting the budget latches the client "down" so the sweep's
//     remaining runs fail fast; after MaxBackoff the latch half-opens
//     and exactly one run probes the coordinator — any HTTP reply shows
//     it reachable and closes the latch for everyone, while a probe
//     that gets none re-arms it. A fast-failing
//     coordinator therefore costs one request per MaxBackoff, not one
//     full retry budget per run.
type FabricClient struct {
	// BaseURL is the coordinator root, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. It must not time out
	// before the coordinator finishes a run: the reply carries the
	// result.
	HTTPClient *http.Client
	// Retries bounds consecutive retryable failures (transport errors
	// and 429/503 sheds) tolerated before the run is failed
	// (default 20).
	Retries int
	// Backoff is the initial retry delay (default 50ms); successive
	// retryable failures double it, jittered to [0.5,1.5)×, up to
	// MaxBackoff (default 2s). A server Retry-After raises the floor.
	Backoff time.Duration
	// MaxBackoff caps the retry delay and sets how long the down latch
	// holds before half-opening (default 2s).
	MaxBackoff time.Duration

	// Down latch (half-open circuit breaker). While downUntil is in the
	// future every Execute fails fast; once it passes, one caller takes
	// the probing token and tries the coordinator for real.
	downMu    sync.Mutex
	downUntil time.Time
	probing   bool
}

// NewFabricClient returns a client for the coordinator at base.
func NewFabricClient(base string) *FabricClient {
	return &FabricClient{BaseURL: base}
}

// errCoordinatorDown is the fail-fast error while the down latch holds.
var errCoordinatorDown = errors.New("service: fabric submit: coordinator unreachable (marked down)")

func (c *FabricClient) backoffParams() (base, cap time.Duration) {
	base = c.Backoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	cap = c.MaxBackoff
	if cap <= 0 {
		cap = 2 * time.Second
	}
	if cap < base {
		cap = base
	}
	return base, cap
}

// backoffDelay computes the jittered exponential delay for retry
// attempt n (0-based), never below floor (the server's Retry-After).
func (c *FabricClient) backoffDelay(attempt int, floor time.Duration) time.Duration {
	base, cap := c.backoffParams()
	d := base
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	// Jitter to [0.5, 1.5)× so a sweep's worth of concurrent retries
	// spreads out instead of hammering the coordinator in lockstep.
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	if d < floor {
		d = floor
	}
	return d
}

// acquire gates one Execute through the down latch. It returns probe =
// true when this call holds the half-open probing token (it must call
// release with the outcome), and an error when the latch is closed.
func (c *FabricClient) acquire() (probe bool, err error) {
	c.downMu.Lock()
	defer c.downMu.Unlock()
	if c.downUntil.IsZero() {
		return false, nil
	}
	if time.Now().Before(c.downUntil) || c.probing {
		return false, errCoordinatorDown
	}
	c.probing = true
	return true, nil
}

// release reports a gated call's outcome: reaching the coordinator
// closes the latch for every waiting run; a probe that did not reach it
// re-arms the latch for another MaxBackoff.
func (c *FabricClient) release(probe, ok bool) {
	_, cap := c.backoffParams()
	c.downMu.Lock()
	defer c.downMu.Unlock()
	if ok {
		c.downUntil = time.Time{}
		c.probing = false
		return
	}
	if probe {
		c.probing = false
		c.downUntil = time.Now().Add(cap)
	}
}

// latchDown arms the down latch after a run exhausts its retry budget.
func (c *FabricClient) latchDown() {
	_, cap := c.backoffParams()
	c.downMu.Lock()
	if c.downUntil.IsZero() {
		c.downUntil = time.Now().Add(cap)
	}
	c.downMu.Unlock()
}

// retryable reports whether an error is worth retrying (transport
// failure or an explicit shed) and the server-requested delay floor.
func retryable(err error) (ok bool, floor time.Duration) {
	var ae *Error
	if !errors.As(err, &ae) {
		return true, 0 // transport-level: retry
	}
	if ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable {
		return true, ae.RetryAfter
	}
	return false, 0
}

// Execute implements exp.Backend.
func (c *FabricClient) Execute(key string, cfg arch.Config, spec workload.Spec, opts workload.Options) (core.Result, error) {
	retries := c.Retries
	if retries <= 0 {
		retries = 20
	}
	probe, err := c.acquire()
	if err != nil {
		return core.Result{}, err
	}
	cl := &Client{BaseURL: c.BaseURL, HTTPClient: c.HTTPClient}
	run := WireRun{
		Key:       key,
		Cfg:       cfg,
		Workload:  spec.Name,
		IterScale: opts.IterScale,
		MaxCTAs:   opts.MaxCTAs,
	}
	for attempt := 0; ; attempt++ {
		var res core.Result
		err := cl.do("POST", "/v1/fabric/runs", run, &res)
		var ae *Error
		if err == nil || errors.As(err, &ae) {
			// Any HTTP reply shows the coordinator is reachable.
			c.release(probe, true)
			probe = false
		}
		if err == nil {
			return res, nil
		}
		retry, floor := retryable(err)
		switch {
		case !retry:
			// An authoritative HTTP reply (400/409/500) will not get
			// better with retries.
		case attempt+1 >= retries:
			c.latchDown()
		default:
			time.Sleep(c.backoffDelay(attempt, floor))
			continue
		}
		c.release(probe, false)
		return core.Result{}, fmt.Errorf("service: fabric submit: %w", err)
	}
}
