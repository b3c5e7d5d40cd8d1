package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/workload"
)

// tinyServiceOpts mirrors service_test.tinyOpts for the internal tests:
// two sub-second workloads.
func tinyServiceOpts() exp.Options {
	var subset []workload.Spec
	for _, name := range []string{"Other-Stream-Triad", "Rodinia-Hotspot"} {
		s, ok := workload.ByName(name)
		if !ok {
			panic("missing workload " + name)
		}
		subset = append(subset, s)
	}
	return exp.Options{Divisor: 16, IterScale: 0.1, MaxCTAs: 64, Workloads: subset, Parallelism: 2}
}

// blockedServer builds a 1-worker, depth-1 coordinator whose queue
// worker is deterministically wedged: a fabric worker registers but
// never polls for work, so the first sweep's simulation parks as a
// pending shard forever (until unblock completes it).
func blockedServer(t *testing.T, cfg Config) (*Server, *httptest.Server, string) {
	t.Helper()
	if cfg.Options.Divisor == 0 {
		cfg.Options = tinyServiceOpts()
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = time.Minute // the blocker must stay "live" throughout
	}
	cfg.FabricPoll = 10 * time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	reg, err := srv.fabric.register("blocker", "blocker-proc", 1)
	if err != nil {
		t.Fatalf("register blocker: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, reg.WorkerID
}

// unblock completes every shard offered to the blocker with a
// fabricated result until each named job is done or failed, so those
// jobs drain and Close does not re-simulate. It keeps draining past an
// empty shard table: a job already marked running may not have reached
// the fabric yet, and a queued one reaches it only after the job ahead
// of it finishes.
func unblock(t *testing.T, srv *Server, workerID string, jobs ...string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := poll(srv.fabric, workerID, 8)
		if err != nil {
			t.Fatalf("unblock poll: %v", err)
		}
		var results []ShardResult
		for _, sh := range resp.Shards {
			res := core.Result{Name: sh.Run.Workload, Cycles: 1}
			results = append(results, ShardResult{ShardID: sh.ID, Key: sh.Run.Key, Result: &res})
		}
		if len(results) > 0 {
			if _, err := poll(srv.fabric, workerID, 0, results...); err != nil {
				t.Fatalf("unblock results: %v", err)
			}
		}
		finished := true
		for _, id := range jobs {
			if j, ok := srv.lookup(id); ok {
				st := srv.status(j).State
				finished = finished && (st == JobDone || st == JobFailed)
			}
		}
		if finished {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs %v never finished; fabric %+v", jobs, srv.fabric.snapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func awaitJobState(t *testing.T, srv *Server, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := srv.lookup(id)
		if ok {
			st := srv.status(j)
			if st.State == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s", id, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func submitTinySweep(c *Client) (JobStatus, error) {
	return c.SubmitSweep(SweepRequest{Preset: "base", Sockets: 2, Workloads: []string{"Other-Stream-Triad"}})
}

// TestQueueFullShedsWith429 pins the overload contract: beyond
// -max-queue, submissions get 429 with a Retry-After header, the
// rejection is visible in /metrics, and nothing already admitted is
// disturbed.
func TestQueueFullShedsWith429(t *testing.T) {
	srv, ts, blocker := blockedServer(t, Config{Workers: 1, QueueDepth: 1})
	c := NewClient(ts.URL)

	j1, err := submitTinySweep(c)
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	awaitJobState(t, srv, j1.ID, JobRunning) // wedged on the blocker's shard
	j2, err := submitTinySweep(c)
	if err != nil {
		t.Fatalf("second submit (fills the queue): %v", err)
	}

	_, err = submitTinySweep(c)
	var ae *Error
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit = %v, want HTTP 429", err)
	}
	if ae.RetryAfter < time.Second {
		t.Fatalf("Retry-After = %s, want >= 1s", ae.RetryAfter)
	}
	if !strings.Contains(ae.Message, "queue_full") {
		t.Fatalf("rejection message %q does not name the reason", ae.Message)
	}

	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `numagpud_admission_rejected_total{reason="queue_full",tenant="default"} 1`) {
		t.Fatalf("metrics missing queue_full rejection:\n%s", metrics)
	}

	// The shed submission must not have registered a job.
	if _, ok := srv.lookup("job-3"); ok {
		t.Fatal("rejected submission left a job behind")
	}

	// Both admitted jobs still complete once the fabric drains.
	unblock(t, srv, blocker, j1.ID, j2.ID)
	awaitJobState(t, srv, j1.ID, JobDone)
	awaitJobState(t, srv, j2.ID, JobDone)
	srv.Close()
}

// TestTenantQuotaIsolation pins per-tenant token buckets: one tenant
// exhausting its quota gets 429 while other tenants (and the default
// bucket) are untouched.
func TestTenantQuotaIsolation(t *testing.T) {
	srv, err := New(Config{Options: tinyServiceOpts(), Workers: 2, TenantQuota: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	// fig2 is metadata-only: no simulation, jobs finish instantly.
	post := func(tenant string) *http.Response {
		req, err := http.NewRequest("POST", ts.URL+"/v1/experiments/fig2", nil)
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if code := post("alice").StatusCode; code != http.StatusAccepted {
		t.Fatalf("alice #1 = %d, want 202", code)
	}
	if code := post("alice").StatusCode; code != http.StatusAccepted {
		t.Fatalf("alice #2 = %d, want 202", code)
	}
	over := post("alice")
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice #3 = %d, want 429 (quota 2/min exhausted)", over.StatusCode)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Fatal("quota rejection missing Retry-After header")
	}
	if code := post("bob").StatusCode; code != http.StatusAccepted {
		t.Fatalf("bob after alice's exhaustion = %d, want 202 (tenant isolation)", code)
	}
	if code := post("").StatusCode; code != http.StatusAccepted {
		t.Fatalf("default tenant = %d, want 202", code)
	}

	metrics, err := NewClient(ts.URL).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `numagpud_admission_rejected_total{reason="quota",tenant="alice"} 1`) {
		t.Fatalf("metrics missing alice's quota rejection:\n%s", metrics)
	}
}

// TestBadDeadlineHeaderIs400 pins X-Deadline-Ms validation.
func TestBadDeadlineHeaderIs400(t *testing.T) {
	srv, err := New(Config{Options: tinyServiceOpts(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	for _, bad := range []string{"nope", "-5", "0"} {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/experiments/fig2", nil)
		req.Header.Set("X-Deadline-Ms", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("X-Deadline-Ms=%q -> %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestDeadlineExpiredJobCancelledAtDequeue: a queued job whose deadline
// passes before a worker picks it up fails with a deadline error — it
// is shed before starting, while the running job ahead of it is never
// touched.
func TestDeadlineExpiredJobCancelledAtDequeue(t *testing.T) {
	srv, ts, blocker := blockedServer(t, Config{Workers: 1, QueueDepth: 4})
	c := NewClient(ts.URL)

	j1, err := submitTinySweep(c)
	if err != nil {
		t.Fatal(err)
	}
	awaitJobState(t, srv, j1.ID, JobRunning)

	// Queue a job with a 30ms deadline behind the wedged worker.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/experiments/fig2", nil)
	req.Header.Set("X-Deadline-Ms", "30")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var j2 JobStatus
	if err := jsonDecode(resp, &j2); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deadline submit: %d, %v", resp.StatusCode, err)
	}
	time.Sleep(60 * time.Millisecond) // let the deadline lapse while queued

	unblock(t, srv, blocker, j1.ID, j2.ID)
	awaitJobState(t, srv, j1.ID, JobDone) // in-flight work was never shed
	awaitJobState(t, srv, j2.ID, JobFailed)
	if j, _ := srv.lookup(j2.ID); !strings.Contains(srv.status(j).Error, "deadline") {
		t.Fatalf("job error = %q, want a deadline message", srv.status(j).Error)
	}

	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `numagpud_deadline_cancelled_total{kind="job"} 1`) {
		t.Fatalf("metrics missing job deadline cancellation:\n%s", metrics)
	}
	srv.Close()
}

// TestReadinessSplit pins the liveness/readiness health split: both
// probes serve 200 on a healthy daemon; after shutdown begins the
// process stays live but turns not-ready.
func TestReadinessSplit(t *testing.T) {
	srv, err := New(Config{Options: tinyServiceOpts(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{"/healthz", "/healthz/live", "/healthz/ready"} {
		if code := get(path); code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, code)
		}
	}
	srv.Close()
	if code := get("/healthz/live"); code != http.StatusOK {
		t.Fatalf("liveness after Close = %d, want 200 (process still serving)", code)
	}
	if code := get("/healthz/ready"); code != http.StatusServiceUnavailable {
		t.Fatalf("readiness after Close = %d, want 503 (draining)", code)
	}
}

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestFabricDeadlineCancelsPendingShards: the janitor cancels a shard
// whose job deadline passed while it was still pending, surfacing
// exp.ErrDeadlineExceeded to the waiter.
func TestFabricDeadlineCancelsPendingShards(t *testing.T) {
	f := newFabric(2*time.Second, 10*time.Millisecond)
	defer f.close()
	deadline := time.Now().Add(50 * time.Millisecond)
	f.deadlineFn = func() time.Time { return deadline }
	// A worker exists (so execute queues instead of reporting no
	// workers) but never asks for work.
	if _, err := f.register("idle", "idle-proc", 4); err != nil {
		t.Fatal(err)
	}

	ch := startExecute(f, "k-deadline")
	select {
	case out := <-ch:
		if !errors.Is(out.err, exp.ErrDeadlineExceeded) {
			t.Fatalf("execute err = %v, want exp.ErrDeadlineExceeded", out.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending shard never deadline-cancelled")
	}
	if snap := f.snapshot(); snap.DeadlineCancelled != 1 {
		t.Fatalf("DeadlineCancelled = %d, want 1", snap.DeadlineCancelled)
	}
}

// TestFabricDeadlineNeverShedsLeasedShards: a shard already leased to a
// worker runs to completion even after its deadline passes — in-flight
// work is never shed.
func TestFabricDeadlineNeverShedsLeasedShards(t *testing.T) {
	f := newFabric(5*time.Second, 10*time.Millisecond)
	defer f.close()
	deadline := time.Now().Add(30 * time.Millisecond)
	f.deadlineFn = func() time.Time { return deadline }
	reg, err := f.register("w", "proc-w", 1)
	if err != nil {
		t.Fatal(err)
	}
	ch := startExecute(f, "k-leased")
	shards := awaitLeased(t, f, reg.WorkerID, 1)

	// Let the deadline lapse, then force a janitor pass over the leased
	// shard (the real timer tick is jittered, so drive it directly).
	time.Sleep(50 * time.Millisecond)
	f.sweepExpired(time.Now())
	select {
	case out := <-ch:
		t.Fatalf("leased shard resolved early: %+v", out)
	default:
	}

	res := core.Result{Name: "late", Cycles: 7}
	if _, err := poll(f, reg.WorkerID, 0, ShardResult{ShardID: shards[0].ID, Key: shards[0].Run.Key, Result: &res}); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-ch:
		if out.err != nil || out.res.Cycles != 7 {
			t.Fatalf("leased shard outcome = %+v, want the worker's result", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("result never delivered")
	}
	if snap := f.snapshot(); snap.DeadlineCancelled != 0 {
		t.Fatalf("DeadlineCancelled = %d, want 0 (in-flight never shed)", snap.DeadlineCancelled)
	}
}
