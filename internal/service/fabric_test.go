package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/workload"
)

// --- fabric lease-machinery unit tests (no simulations) ---

// newFabric builds a fabric with no disk cache, journal or recovered
// grants.
func newFabric(leaseTTL, poll time.Duration) *fabric {
	return newFabricState(leaseTTL, poll, nil, nil, nil)
}

// poll sends one heartbeat for workerID the way service.Worker does:
// numbered with the next Seq after the last one the fabric processed,
// and Holding every lease the fabric granted the worker, so the
// reconciliation requeues nothing. want asks for new shards; results
// report finished ones.
func poll(f *fabric, workerID string, want int, results ...ShardResult) (PollResponse, error) {
	req := PollRequest{WorkerID: workerID, Seq: 1, Want: want, Results: results}
	f.mu.Lock()
	if w, ok := f.workers[workerID]; ok {
		req.Seq = w.lastSeq + 1
		for key := range w.leased {
			req.Holding = append(req.Holding, key)
		}
	}
	f.mu.Unlock()
	return f.pollWorker(req)
}

// testRun builds a WireRun with a distinguishable key; the config and
// workload are never executed by these unit tests.
func testRun(key string) WireRun {
	return WireRun{Key: key, Workload: "Other-Stream-Triad"}
}

// startExecute launches fabric.execute on its own goroutine and
// returns a channel carrying its outcome.
type executeOutcome struct {
	res core.Result
	err error
}

func startExecute(f *fabric, key string) chan executeOutcome {
	ch := make(chan executeOutcome, 1)
	go func() {
		res, err := f.execute(testRun(key))
		ch <- executeOutcome{res, err}
	}()
	return ch
}

// awaitLeased polls a worker's lease set until it holds n shards.
func awaitLeased(t *testing.T, f *fabric, workerID string, n int) []WireShard {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := poll(f, workerID, n)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		f.mu.Lock()
		leased := len(f.workers[workerID].leased)
		f.mu.Unlock()
		if len(resp.Shards) > 0 || leased >= n {
			return resp.Shards
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s never leased %d shards", workerID, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFabricNoWorkersIsUnavailable(t *testing.T) {
	f := newFabric(time.Second, 10*time.Millisecond)
	defer f.close()
	if _, err := f.execute(testRun("k1")); !errors.Is(err, errNoWorkers) {
		t.Fatalf("execute with no workers: %v, want errNoWorkers", err)
	}
	b := fabricBackend{f}
	_, err := b.Execute("k1", arch.Config{}, workload.Spec{}, workload.Options{})
	if !errors.Is(err, exp.ErrBackendUnavailable) {
		t.Fatalf("backend with no workers: %v, want exp.ErrBackendUnavailable", err)
	}
}

func TestFabricLeaseWindowAndCompletion(t *testing.T) {
	f := newFabric(time.Minute, 10*time.Millisecond)
	defer f.close()
	reg, err := f.register("w", "proc-w", 2)
	if err != nil {
		t.Fatal(err)
	}
	c1 := startExecute(f, "k1")
	c2 := startExecute(f, "k2")
	c3 := startExecute(f, "k3")

	// The window caps the grant at 2 even though 3 shards are pending
	// and the worker asked for more.
	var got []WireShard
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < 2 {
		resp, err := poll(f, reg.WorkerID, 8)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resp.Shards...)
		if time.Now().After(deadline) {
			t.Fatalf("leased %d shards, want 2", len(got))
		}
		time.Sleep(time.Millisecond)
	}
	if len(got) != 2 {
		t.Fatalf("leased %d shards, want exactly 2 (window)", len(got))
	}
	if resp, _ := poll(f, reg.WorkerID, 8); len(resp.Shards) != 0 {
		t.Fatalf("over-window grant: %d extra shards", len(resp.Shards))
	}

	// Completing one shard frees a window slot and wakes its waiter.
	res := core.Result{Name: "done", Cycles: 42}
	resp, err := poll(f, reg.WorkerID, 8, ShardResult{ShardID: got[0].ID, Key: got[0].Run.Key, Result: &res})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Shards) != 1 {
		t.Fatalf("freed slot granted %d shards, want 1", len(resp.Shards))
	}
	outcomes := map[string]chan executeOutcome{"k1": c1, "k2": c2, "k3": c3}
	select {
	case out := <-outcomes[got[0].Run.Key]:
		if out.err != nil || out.res.Cycles != 42 {
			t.Fatalf("waiter outcome = %+v", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woken by completion")
	}
	snap := f.snapshot()
	if snap.Completed != 1 || snap.ShardsTotal != 3 {
		t.Fatalf("snapshot = %+v, want 1 completed of 3", snap)
	}
}

func TestFabricWorkerDeathRequeuesToSurvivor(t *testing.T) {
	f := newFabric(60*time.Millisecond, 5*time.Millisecond)
	defer f.close()
	rega, _ := f.register("a", "proc-a", 1)
	done := startExecute(f, "k1")
	shards := awaitLeased(t, f, rega.WorkerID, 1)
	if len(shards) != 1 {
		t.Fatalf("worker a leased %d shards", len(shards))
	}
	// b registers and keeps polling; a goes silent and must expire.
	regb, _ := f.register("b", "proc-b", 1)
	var re []WireShard
	deadline := time.Now().Add(5 * time.Second)
	for len(re) == 0 {
		resp, err := poll(f, regb.WorkerID, 1)
		if err != nil {
			t.Fatal(err)
		}
		re = resp.Shards
		if time.Now().After(deadline) {
			t.Fatal("dead worker's shard never re-leased")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if re[0].Run.Key != "k1" {
		t.Fatalf("re-leased %q, want k1", re[0].Run.Key)
	}
	res := core.Result{Cycles: 7}
	if _, err := poll(f, regb.WorkerID, 0, ShardResult{ShardID: re[0].ID, Key: "k1", Result: &res}); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.err != nil || out.res.Cycles != 7 {
		t.Fatalf("outcome after re-lease = %+v", out)
	}
	snap := f.snapshot()
	if snap.Requeued != 1 || snap.WorkersLive != 1 || snap.Completed != 1 {
		t.Fatalf("snapshot after death = %+v", snap)
	}
	// The dead worker's late report (it was alive all along, just
	// partitioned) is dropped as stale, not double-applied.
	if _, err := poll(f, rega.WorkerID, 0); !errors.Is(err, errUnknownWorker) {
		t.Fatalf("expired worker poll: %v, want errUnknownWorker", err)
	}
}

func TestFabricLastWorkerDeathFailsOver(t *testing.T) {
	f := newFabric(50*time.Millisecond, 5*time.Millisecond)
	defer f.close()
	reg, _ := f.register("only", "proc-only", 1)
	done := startExecute(f, "k1")
	awaitLeased(t, f, reg.WorkerID, 1)
	// The only worker dies: the waiter must fall back to local
	// simulation via errNoWorkers instead of hanging.
	select {
	case out := <-done:
		if !errors.Is(out.err, errNoWorkers) {
			t.Fatalf("outcome = %+v, want errNoWorkers", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung after the last worker died")
	}
}

func TestFabricStaleResultDropped(t *testing.T) {
	f := newFabric(time.Minute, 5*time.Millisecond)
	defer f.close()
	reg, _ := f.register("w", "proc-w", 1)
	done := startExecute(f, "k1")
	shards := awaitLeased(t, f, reg.WorkerID, 1)
	res := core.Result{Cycles: 1}
	report := ShardResult{ShardID: shards[0].ID, Key: "k1", Result: &res}
	if _, err := poll(f, reg.WorkerID, 0, report); err != nil {
		t.Fatal(err)
	}
	<-done
	// Duplicate report for the completed shard, and a report for a key
	// the fabric never issued: both dropped and counted.
	if _, err := poll(f, reg.WorkerID, 0, report); err != nil {
		t.Fatal(err)
	}
	if _, err := poll(f, reg.WorkerID, 0, ShardResult{Key: "never-issued", Result: &res}); err != nil {
		t.Fatal(err)
	}
	snap := f.snapshot()
	if snap.StaleResults != 2 || snap.Completed != 1 {
		t.Fatalf("snapshot = %+v, want 2 stale results and 1 completion", snap)
	}
}

func TestFabricWorkerErrorFailsShardDeterministically(t *testing.T) {
	f := newFabric(time.Minute, 5*time.Millisecond)
	defer f.close()
	reg, _ := f.register("w", "proc-w", 1)
	done := startExecute(f, "k1")
	shards := awaitLeased(t, f, reg.WorkerID, 1)
	if _, err := poll(f, reg.WorkerID, 0, ShardResult{ShardID: shards[0].ID, Key: "k1", Error: "simulation panic: bad config"}); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.err == nil || !strings.Contains(out.err.Error(), "bad config") {
		t.Fatalf("outcome = %+v, want the worker's error", out)
	}
	if snap := f.snapshot(); snap.Failed != 1 {
		t.Fatalf("snapshot = %+v, want 1 failed shard", snap)
	}
}

func TestFabricDeregisterRequeues(t *testing.T) {
	f := newFabric(time.Minute, 5*time.Millisecond)
	defer f.close()
	rega, _ := f.register("a", "proc-a", 1)
	regb, _ := f.register("b", "proc-b", 1)
	done := startExecute(f, "k1")
	// Make sure a (not b) holds the lease before deregistering it.
	shards := awaitLeased(t, f, rega.WorkerID, 1)
	if err := f.deregister(rega.WorkerID); err != nil {
		t.Fatal(err)
	}
	re := awaitLeased(t, f, regb.WorkerID, 1)
	if re[0].Run.Key != shards[0].Run.Key {
		t.Fatalf("re-leased %q, want %q", re[0].Run.Key, shards[0].Run.Key)
	}
	res := core.Result{Cycles: 9}
	poll(f, regb.WorkerID, 0, ShardResult{Key: "k1", Result: &res})
	if out := <-done; out.err != nil || out.res.Cycles != 9 {
		t.Fatalf("outcome = %+v", out)
	}
}

// lastSeq reads the highest poll sequence number the fabric processed
// for workerID.
func lastSeq(f *fabric, workerID string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.workers[workerID].lastSeq
}

// TestFabricDuplicatePollIngestsOnly: a poll whose Seq the fabric has
// already processed (a retried or duplicated delivery) still ingests
// its results, but it grants nothing and requeues nothing, even though
// its Holding is empty and a pending shard would fit the window.
func TestFabricDuplicatePollIngestsOnly(t *testing.T) {
	f := newFabric(time.Minute, 5*time.Millisecond)
	defer f.close()
	reg, _ := f.register("w", "proc-w", 2)
	d1 := startExecute(f, "k1")
	awaitLeased(t, f, reg.WorkerID, 1)
	startExecute(f, "k2")
	awaitLeased(t, f, reg.WorkerID, 2)
	startExecute(f, "k3")
	for deadline := time.Now().Add(5 * time.Second); f.snapshot().Pending != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("k3 never queued")
		}
	}

	res := core.Result{Cycles: 5}
	dup := PollRequest{
		WorkerID: reg.WorkerID,
		Seq:      lastSeq(f, reg.WorkerID),
		Want:     2,
		Results:  []ShardResult{{Key: "k1", Result: &res}},
	}
	resp, err := f.pollWorker(dup)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Shards) != 0 {
		t.Fatalf("duplicate poll granted %d shards, want none", len(resp.Shards))
	}
	if out := <-d1; out.err != nil || out.res.Cycles != 5 {
		t.Fatalf("k1 outcome = %+v, want the duplicate poll's result", out)
	}
	snap := f.snapshot()
	if snap.Completed != 1 || snap.Requeued != 0 || snap.Leased != 1 || snap.Pending != 1 {
		t.Fatalf("after the duplicate poll: %+v, want k1 completed, k2 still leased, k3 pending, nothing requeued", snap)
	}

	// The next fresh poll takes k3 into the slot k1 freed.
	resp, err = poll(f, reg.WorkerID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Shards) != 1 || resp.Shards[0].Run.Key != "k3" {
		t.Fatalf("fresh poll granted %+v, want k3", resp.Shards)
	}
}

// TestFabricReconcileRequeuesUnheldLease: a fresh poll whose Holding
// omits a lease the fabric granted (the grant's reply never reached the
// worker) requeues that shard at once, long before the lease TTL, and
// the shard is granted again.
func TestFabricReconcileRequeuesUnheldLease(t *testing.T) {
	f := newFabric(time.Minute, 5*time.Millisecond)
	defer f.close()
	reg, _ := f.register("w", "proc-w", 1)
	done := startExecute(f, "k1")
	awaitLeased(t, f, reg.WorkerID, 1)

	lost := PollRequest{WorkerID: reg.WorkerID, Seq: lastSeq(f, reg.WorkerID) + 1}
	if _, err := f.pollWorker(lost); err != nil {
		t.Fatal(err)
	}
	if snap := f.snapshot(); snap.Requeued != 1 || snap.Leased != 0 || snap.Pending != 1 {
		t.Fatalf("after a poll not holding k1: %+v, want k1 requeued and pending", snap)
	}

	re := awaitLeased(t, f, reg.WorkerID, 1)
	if len(re) != 1 || re[0].Run.Key != "k1" {
		t.Fatalf("re-leased %+v, want k1", re)
	}
	res := core.Result{Cycles: 3}
	if _, err := poll(f, reg.WorkerID, 0, ShardResult{ShardID: re[0].ID, Key: "k1", Result: &res}); err != nil {
		t.Fatal(err)
	}
	if out := <-done; out.err != nil || out.res.Cycles != 3 {
		t.Fatalf("outcome = %+v", out)
	}
}

// --- integration tests: real Server + real Workers + real simulations ---

// fabricOpts is the smallest useful harness for cluster tests.
func fabricOpts() exp.Options {
	var subset []workload.Spec
	for _, name := range []string{"Other-Stream-Triad", "Rodinia-Hotspot", "HPC-RSBench", "Lonestar-SP"} {
		s, ok := workload.ByName(name)
		if !ok {
			panic("missing workload " + name)
		}
		subset = append(subset, s)
	}
	return exp.Options{Divisor: 16, IterScale: 0.1, MaxCTAs: 64, Workloads: subset, Parallelism: 4}
}

// clusterServer boots a coordinator with a fast lease clock for tests.
func clusterServer(t *testing.T, cacheDir string) (*Server, *httptest.Server, *Client) {
	t.Helper()
	srv, err := New(Config{
		Options:    fabricOpts(),
		CacheDir:   cacheDir,
		Workers:    2,
		LeaseTTL:   300 * time.Millisecond,
		FabricPoll: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, NewClient(ts.URL)
}

func startTestWorker(t *testing.T, url, name string, window int) (*Worker, context.CancelFunc, chan error) {
	t.Helper()
	w := NewWorker(WorkerConfig{
		CoordinatorURL: url,
		Name:           name,
		Window:         window,
		Poll:           10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- w.Run(ctx) }()
	t.Cleanup(cancel)
	return w, cancel, errc
}

// sweepBytes runs the canonical test sweep on a server and returns the
// result payload.
func sweepBytes(t *testing.T, c *Client) []byte {
	t.Helper()
	req := SweepRequest{Preset: "base", Sockets: 2}
	j, err := c.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := c.Wait(ctx, j.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	b, err := c.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// awaitWorkers blocks until n workers are registered.
func awaitWorkers(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.fabric.snapshot().WorkersLive < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d workers registered, want %d", srv.fabric.snapshot().WorkersLive, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterTwoWorkersByteIdenticalExactlyOnce is the tentpole
// acceptance test: a 2-worker cluster produces byte-identical sweep
// output to a worker-less (purely local) daemon, with every simulation
// executed exactly once cluster-wide, all of it observable in the
// run-count metrics.
func TestClusterTwoWorkersByteIdenticalExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Baseline: no workers — the coordinator simulates locally.
	_, _, baseClient := clusterServer(t, "")
	want := sweepBytes(t, baseClient)

	srv, ts, c := clusterServer(t, t.TempDir())
	w1, _, _ := startTestWorker(t, ts.URL, "w1", 1)
	w2, _, _ := startTestWorker(t, ts.URL, "w2", 1)
	awaitWorkers(t, srv, 2)

	got := sweepBytes(t, c)
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster sweep differs from local sweep:\n%s\nvs\n%s", got, want)
	}

	uniq := uint64(len(fabricOpts().Workloads))
	if st := srv.RunnerStats(); st.Simulations != 0 || st.RemoteRuns != uniq {
		t.Fatalf("coordinator stats = %+v, want 0 local sims and %d remote runs", st, uniq)
	}
	snap := srv.fabric.snapshot()
	if snap.ShardsTotal != uniq || snap.Completed != uniq || snap.StaleResults != 0 {
		t.Fatalf("fabric snapshot = %+v, want %d shards completed exactly once", snap, uniq)
	}
	if total := w1.Stats().Simulations + w2.Stats().Simulations; total != uniq {
		t.Fatalf("workers simulated %d times for %d unique keys (w1 %d, w2 %d)",
			total, uniq, w1.Stats().Simulations, w2.Stats().Simulations)
	}

	// The disk cache is the source of truth: worker results must be
	// replayable from it without any fleet at all.
	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, wantLine := range []string{
		"numagpud_simulations_total 0\n",
		"numagpud_fabric_results_stale_total 0\n",
	} {
		if !strings.Contains(metrics, wantLine) {
			t.Fatalf("metrics missing %q:\n%s", wantLine, metrics)
		}
	}
}

// TestClusterWorkerKillMidSweep kills one worker while it holds a
// lease and requires: the coordinator re-leases its shards to the
// survivor, the sweep output stays byte-identical, and no simulation
// ran twice cluster-wide (exact run counts — the killed worker's
// blocked shard never simulated).
func TestClusterWorkerKillMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	_, _, baseClient := clusterServer(t, "")
	want := sweepBytes(t, baseClient)

	srv, ts, c := clusterServer(t, t.TempDir())
	w1 := NewWorker(WorkerConfig{CoordinatorURL: ts.URL, Name: "victim", Window: 1, Poll: 10 * time.Millisecond})
	// The victim's executor blocks forever: it leases a shard, starts
	// "simulating", and never finishes — modelling SIGKILL mid-run.
	w1.beforeRun = func(string) { select {} }
	go w1.Run(context.Background())

	w2, _, _ := startTestWorker(t, ts.URL, "survivor", 1)
	awaitWorkers(t, srv, 2)

	// Submit the sweep, wait until the victim holds a lease, then kill.
	req := SweepRequest{Preset: "base", Sockets: 2}
	j, err := c.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := srv.fabric.snapshot()
		victimLeased := 0
		for _, ws := range snap.Workers {
			if ws.Name == "victim" {
				victimLeased = ws.Leased
			}
		}
		if victimLeased > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never leased a shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
	w1.kill()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := c.Wait(ctx, j.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got, err := c.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-kill sweep differs from local sweep:\n%s\nvs\n%s", got, want)
	}

	uniq := uint64(len(fabricOpts().Workloads))
	snap := srv.fabric.snapshot()
	if snap.Requeued < 1 {
		t.Fatalf("no shards re-queued after worker kill: %+v", snap)
	}
	if snap.Completed != uniq || snap.StaleResults != 0 {
		t.Fatalf("fabric snapshot = %+v, want %d completions and 0 stale", snap, uniq)
	}
	if st := srv.RunnerStats(); st.Simulations != 0 {
		t.Fatalf("coordinator simulated locally (%d) despite a live survivor", st.Simulations)
	}
	// Exactly once: the victim's blocked shard never simulated, so the
	// survivor's count alone must equal the unique keys.
	if total := w1.Stats().Simulations + w2.Stats().Simulations; total != uniq {
		t.Fatalf("cluster simulated %d times for %d unique keys (victim %d, survivor %d)",
			total, uniq, w1.Stats().Simulations, w2.Stats().Simulations)
	}
}

// TestClusterWorkerDrainOnCancel: cancelling a worker's context must
// finish and ship its in-flight shards, deregister, and leave the
// sweep to complete correctly (here: on the coordinator, locally).
func TestClusterWorkerDrainOnCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	_, _, baseClient := clusterServer(t, "")
	want := sweepBytes(t, baseClient)

	srv, ts, c := clusterServer(t, t.TempDir())
	_, cancel, errc := startTestWorker(t, ts.URL, "draining", 2)
	awaitWorkers(t, srv, 1)

	req := SweepRequest{Preset: "base", Sockets: 2}
	j, err := c.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	// Let the worker lease something, then ask it to drain.
	deadline := time.Now().Add(10 * time.Second)
	for srv.fabric.snapshot().Leased == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never leased a shard")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("worker drain returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker drain hung")
	}
	if srv.fabric.snapshot().WorkersLive != 0 {
		t.Fatal("worker did not deregister on drain")
	}

	ctx, cancel2 := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel2()
	if _, err := c.Wait(ctx, j.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got, err := c.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sweep output wrong after worker drain")
	}
	// Work is conserved: every unique key simulated exactly once
	// cluster-wide, split between the drained worker and the
	// coordinator's local fallback.
	uniq := uint64(len(fabricOpts().Workloads))
	snap := srv.fabric.snapshot()
	local := srv.RunnerStats().Simulations
	if snap.WorkerStats.Simulations+local != uniq || snap.StaleResults != 0 {
		t.Fatalf("worker sims %d + local sims %d != %d unique keys (snapshot %+v)",
			snap.WorkerStats.Simulations, local, uniq, snap)
	}
}

// gatedTransport simulates a network partition: while blocked, every
// request fails at the transport layer.
type gatedTransport struct{ blocked atomic.Bool }

func (g *gatedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if g.blocked.Load() {
		return nil, errors.New("partitioned")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestWorkerReregistrationDoesNotDoubleCountStats partitions a worker
// past its lease TTL so the coordinator expires it (folding its last
// report into the departed accumulator), then heals the partition so
// the worker re-registers. Its pre-partition simulations must not be
// reported again under the new identity: cluster-wide worker
// simulation counts stay equal to unique runs.
func TestWorkerReregistrationDoesNotDoubleCountStats(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	srv, ts, c := clusterServer(t, "")
	gate := &gatedTransport{}
	w := NewWorker(WorkerConfig{
		CoordinatorURL: ts.URL,
		Name:           "flaky",
		Window:         2,
		Poll:           10 * time.Millisecond,
		HTTPClient:     &http.Client{Transport: gate},
	})
	go w.Run(context.Background())
	awaitWorkers(t, srv, 1)

	runSweep := func(workloads []string) {
		t.Helper()
		j, err := c.SubmitSweep(SweepRequest{Preset: "base", Sockets: 2, Workloads: workloads})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if _, err := c.Wait(ctx, j.ID, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	runSweep([]string{"Other-Stream-Triad"})
	// Make sure the simulation count reached the coordinator before
	// partitioning.
	deadline := time.Now().Add(10 * time.Second)
	for srv.fabric.snapshot().WorkerStats.Simulations != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("first simulation never reported: %+v", srv.fabric.snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}

	gate.blocked.Store(true)
	deadline = time.Now().Add(10 * time.Second)
	for srv.fabric.snapshot().WorkersLive != 0 {
		if time.Now().After(deadline) {
			t.Fatal("partitioned worker never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	gate.blocked.Store(false)
	awaitWorkers(t, srv, 1) // re-registered under a fresh identity

	runSweep([]string{"Rodinia-Hotspot"})
	deadline = time.Now().Add(10 * time.Second)
	var got uint64
	for {
		got = srv.fabric.snapshot().WorkerStats.Simulations
		if got >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got != 2 {
		t.Fatalf("cluster-wide worker simulations = %d after re-registration, want exactly 2 (no double count)", got)
	}
	if w.Stats().Simulations != 2 {
		t.Fatalf("worker process simulated %d times, want 2", w.Stats().Simulations)
	}
}

// TestFabricClientFailsFastOnHTTPError: an authoritative error reply
// (here a failed run's 500) fails the run on the one request that got
// it instead of burning the transport retry budget.
func TestFabricClientFailsFastOnHTTPError(t *testing.T) {
	var posts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fabric/runs", func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		writeAPIError(w, http.StatusInternalServerError, codeJobFailed, "boom")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	fc := NewFabricClient(ts.URL)
	spec, _ := workload.ByName("Other-Stream-Triad")
	_, err := fc.Execute("k", arch.Config{}, spec, workload.Options{})
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "service: fabric submit:") {
		t.Fatalf("Execute err = %v, want the server's error", err)
	}
	if posts.Load() != 1 {
		t.Fatalf("client posted %d times against an authoritative error, want 1", posts.Load())
	}
}

// TestFabricRemoteRunEndpoint drives the coordinator's remote-run
// surface the way numagpu -remote does — via a FabricClient behind
// exp.Options.Backend — against a worker-less coordinator (local
// fallback), and checks key-skew rejection.
func TestFabricRemoteRunEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	srv, ts, _ := clusterServer(t, t.TempDir())

	local := exp.NewRunner(fabricOpts())
	opts := fabricOpts()
	opts.Backend = NewFabricClient(ts.URL)
	remote := exp.NewRunner(opts)
	spec := fabricOpts().Workloads[0]
	want := local.Run(local.Base(2), spec)
	got := remote.Run(remote.Base(2), spec)
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
		t.Fatalf("remote run differs: %+v vs %+v", got, want)
	}
	if st := remote.Stats(); st.RemoteRuns != 1 || st.Simulations != 0 {
		t.Fatalf("client stats = %+v, want 1 remote run", st)
	}
	if st := srv.RunnerStats(); st.Simulations != 1 {
		t.Fatalf("coordinator stats = %+v, want exactly 1 local simulation", st)
	}

	// Submitting again from a fresh client is a coordinator-side memo
	// hit: no second simulation.
	opts.Backend = NewFabricClient(ts.URL)
	remote2 := exp.NewRunner(opts)
	got2 := remote2.Run(remote2.Base(2), spec)
	if got2.Cycles != want.Cycles {
		t.Fatal("second remote run differs")
	}
	if st := srv.RunnerStats(); st.Simulations != 1 {
		t.Fatalf("repeat submission re-simulated: %+v", st)
	}

	// A doctored key — simulator version skew — is refused loudly.
	fc := NewFabricClient(ts.URL)
	_, err := fc.Execute("v999|bogus", local.Base(2), spec, workload.Options{IterScale: 0.1, MaxCTAs: 64})
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("key skew accepted: %v", err)
	}
}

// runReply is the status and body of one POST /v1/fabric/runs reply.
type runReply struct {
	status int
	body   []byte
}

// postRun sends one WireRun to POST /v1/fabric/runs. It reports a
// failed request with t.Error, so it may run on any goroutine.
func postRun(t *testing.T, url string, run WireRun) runReply {
	t.Helper()
	body, _ := json.Marshal(run)
	resp, err := http.Post(url+"/v1/fabric/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return runReply{}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return runReply{resp.StatusCode, b}
}

// errorCode decodes the error envelope's code from a reply body.
func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var env struct {
		Error APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("body is not the error envelope: %v: %s", err, body)
	}
	return env.Error.Code
}

// wireRun builds the WireRun of one workload on the server's 2-socket
// base configuration, keyed as the server keys it.
func wireRun(srv *Server, name string) WireRun {
	spec, _ := workload.ByName(name)
	cfg := srv.runner.Base(2)
	o := srv.runner.Options()
	return WireRun{Key: srv.runner.RunKey(cfg, spec), Cfg: cfg, Workload: name, IterScale: o.IterScale, MaxCTAs: o.MaxCTAs}
}

// TestFabricRunEndpointJoinsDuplicates: identical POSTs that arrive
// while the run is executing join that one execution through the memo,
// and every reply, a later one too, carries the same bytes.
func TestFabricRunEndpointJoinsDuplicates(t *testing.T) {
	srv, ts, blocker := blockedServer(t, Config{Workers: 1})
	defer srv.Close()
	run := wireRun(srv, "Other-Stream-Triad")

	const n = 3
	replies := make(chan runReply, n)
	for i := 0; i < n; i++ {
		go func() { replies <- postRun(t, ts.URL, run) }()
	}
	waitCond(t, 10*time.Second, "every POST in flight", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.remoteActive == n
	})
	shards := awaitLeased(t, srv.fabric, blocker, 1)
	res := core.Result{Name: run.Workload, Cycles: 11}
	if _, err := poll(srv.fabric, blocker, 0, ShardResult{ShardID: shards[0].ID, Key: run.Key, Result: &res}); err != nil {
		t.Fatal(err)
	}
	var first []byte
	for i := 0; i < n; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("POST %d: HTTP %d: %s", i, r.status, r.body)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(r.body, first) {
			t.Fatalf("duplicate POSTs replied differently:\n%s\n%s", first, r.body)
		}
	}
	if r := postRun(t, ts.URL, run); r.status != http.StatusOK || !bytes.Equal(r.body, first) {
		t.Fatalf("a later POST replied HTTP %d with %s, want the same bytes", r.status, r.body)
	}
	var got core.Result
	if err := json.Unmarshal(first, &got); err != nil || got.Cycles != 11 {
		t.Fatalf("reply %s (%v), want the worker's result", first, err)
	}
	if st, fs := srv.RunnerStats(), srv.fabric.snapshot(); st.RemoteRuns != 1 || st.Simulations != 0 || fs.ShardsTotal != 1 {
		t.Fatalf("stats %+v, fabric %+v: want one execution", st, fs)
	}
}

// TestFabricRunEndpointFailedRun: a run that fails — here a worker
// reports an error for its shard, which the Runner raises as a panic —
// replies 500 job_failed carrying the failure.
func TestFabricRunEndpointFailedRun(t *testing.T) {
	srv, ts, blocker := blockedServer(t, Config{Workers: 1})
	defer srv.Close()
	run := wireRun(srv, "Other-Stream-Triad")

	done := make(chan runReply, 1)
	go func() { done <- postRun(t, ts.URL, run) }()
	shards := awaitLeased(t, srv.fabric, blocker, 1)
	if _, err := poll(srv.fabric, blocker, 0, ShardResult{ShardID: shards[0].ID, Key: run.Key, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.status != http.StatusInternalServerError || errorCode(t, r.body) != codeJobFailed || !bytes.Contains(r.body, []byte("boom")) {
		t.Fatalf("failed run replied HTTP %d: %s, want 500 job_failed naming the failure", r.status, r.body)
	}
}

// TestFabricRunEndpointDraining: once Close has begun, a POST is refused
// with 503 draining instead of starting a run.
func TestFabricRunEndpointDraining(t *testing.T) {
	srv, err := New(Config{Options: tinyServiceOpts(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	srv.Close()
	r := postRun(t, ts.URL, wireRun(srv, "Other-Stream-Triad"))
	if r.status != http.StatusServiceUnavailable || errorCode(t, r.body) != codeDraining {
		t.Fatalf("POST after Close replied HTTP %d: %s, want 503 draining", r.status, r.body)
	}
	if st := srv.RunnerStats(); st.Simulations != 0 {
		t.Fatalf("a refused POST ran: %+v", st)
	}
}

// TestCacheStatusCountsEveryRunner: /v1/cache and /metrics report the
// totals of every runner the daemon holds, so a remote run at an
// iteration scale other than the daemon's own, which gets a runner of
// its own, moves both by the same amount.
func TestCacheStatusCountsEveryRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	_, ts, client := clusterServer(t, t.TempDir())
	read := func() CacheStatus {
		t.Helper()
		st, err := client.CacheStats()
		if err != nil {
			t.Fatal(err)
		}
		m, err := client.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{
			fmt.Sprintf("numagpud_simulations_total %d\n", st.Simulations),
			fmt.Sprintf("numagpud_cache_hits_total %d\n", st.Hits),
			fmt.Sprintf("numagpud_cache_misses_total %d\n", st.Misses),
		} {
			if !strings.Contains(m, line) {
				t.Fatalf("/v1/cache reads %+v but /metrics lacks %q:\n%s", st, line, m)
			}
		}
		return st
	}
	before := read()
	opts := fabricOpts()
	opts.IterScale /= 2
	opts.Backend = NewFabricClient(ts.URL)
	remote := exp.NewRunner(opts)
	remote.Run(remote.Base(2), opts.Workloads[0])
	after := read()
	if sims, misses := after.Simulations-before.Simulations, after.Misses-before.Misses; sims != 1 || misses != 1 {
		t.Fatalf("a remote run at IterScale %g moved /v1/cache by %d simulations and %d misses, want 1 and 1",
			opts.IterScale, sims, misses)
	}
}
