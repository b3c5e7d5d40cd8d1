package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
)

// waitJobState polls until the job reaches want or the deadline hits.
func waitJobState(t *testing.T, srv *Server, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := srv.lookup(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		st := srv.status(j)
		if st.State == want {
			return st
		}
		if terminal(st.State) {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

// submitSweepHTTP posts one sweep and returns the accepted job status.
func submitSweepHTTP(t *testing.T, ts *httptest.Server, req SweepRequest) JobStatus {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit sweep: HTTP %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// readSSE consumes one /events connection until the server closes it,
// returning the decoded events in arrival order. lastEventID, when non
// zero, is sent as the Last-Event-ID resume header.
func readSSE(t *testing.T, base, jobID string, lastEventID int) []JobEvent {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastEventID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("events: HTTP %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var events []JobEvent
	var frameID int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			frameID, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "data: "):
			var ev JobEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad event data %q: %v", line, err)
			}
			if ev.ID != frameID {
				t.Fatalf("frame id %d disagrees with body id %d", frameID, ev.ID)
			}
			events = append(events, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("events read: %v", err)
	}
	return events
}

// requireDense asserts the events carry consecutive IDs starting at
// from, with no gaps or duplicates.
func requireDense(t *testing.T, events []JobEvent, from int) {
	t.Helper()
	for i, ev := range events {
		if want := from + i; ev.ID != want {
			t.Fatalf("event %d has ID %d, want %d (gap or duplicate)", i, ev.ID, want)
		}
	}
}

// TestEventStreamLifecycle runs one sweep to completion and checks the
// full event contract: the replayed stream is dense from ID 1, begins
// with state=queued, carries exactly one run_done per unique run, ends
// with the terminal state event, and resumes exactly — no gaps, no
// duplicates — from any Last-Event-ID.
func TestEventStreamLifecycle(t *testing.T) {
	srv, err := New(Config{Options: tinyServiceOpts(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st := submitSweepHTTP(t, ts, SweepRequest{Preset: "base", Sockets: 2, Workloads: []string{"Other-Stream-Triad", "Rodinia-Hotspot"}})
	waitJobState(t, srv, st.ID, JobDone)

	events := readSSE(t, ts.URL, st.ID, 0)
	requireDense(t, events, 1)
	if len(events) != 5 { // queued, running, 2 run_done, done
		t.Fatalf("events = %+v, want queued, running, 2 run_done, done", events)
	}
	if events[0].Type != EventState || events[0].State != JobQueued {
		t.Fatalf("first event = %+v, want state=queued", events[0])
	}
	last := events[len(events)-1]
	if last.Type != EventState || last.State != JobDone {
		t.Fatalf("last event = %+v, want state=done", last)
	}
	runDone := 0
	seen := map[string]bool{}
	for _, ev := range events {
		switch ev.Type {
		case EventRunDone:
			runDone++
			if ev.Run == nil || ev.Run.Run == "" || ev.Run.Cycles == 0 || ev.Run.Total != 2 {
				t.Fatalf("malformed run_done: %+v", ev.Run)
			}
			if seen[ev.Run.Run] {
				t.Fatalf("run %s reported twice", ev.Run.Run)
			}
			seen[ev.Run.Run] = true
		}
	}
	if runDone != 2 {
		t.Fatalf("%d run_done events, want 2", runDone)
	}

	// Resume from every position: the tail must continue exactly where
	// the client left off.
	for lastID := 1; lastID < len(events); lastID++ {
		tail := readSSE(t, ts.URL, st.ID, lastID)
		requireDense(t, tail, lastID+1)
		if len(tail) != len(events)-lastID {
			t.Fatalf("resume from %d returned %d events, want %d", lastID, len(tail), len(events)-lastID)
		}
	}
}

// TestStreamJobFollowsLiveJob covers the client consumer against a job
// that completes while being streamed: a disconnect mid-stream resumes
// via Last-Event-ID and the callback still sees every event exactly
// once, ending at the terminal state.
func TestStreamJobFollowsLiveJob(t *testing.T) {
	srv, ts, blocker := blockedServer(t, Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	c := NewClient(ts.URL)

	st := submitSweepHTTP(t, ts, SweepRequest{Preset: "base", Sockets: 2, Workloads: []string{"Other-Stream-Triad"}})
	waitJobState(t, srv, st.ID, JobRunning)

	type streamResult struct {
		events []JobEvent
		err    error
	}
	done := make(chan streamResult, 1)
	go func() {
		var events []JobEvent
		err := c.StreamJob(context.Background(), st.ID, func(ev JobEvent) error {
			events = append(events, ev)
			return nil
		})
		done <- streamResult{events, err}
	}()

	// Let the stream attach and deliver the queued/running prefix, then
	// release the wedged simulation.
	time.Sleep(50 * time.Millisecond)
	unblock(t, srv, blocker, st.ID)

	res := <-done
	if res.err != nil {
		t.Fatalf("StreamJob: %v", res.err)
	}
	requireDense(t, res.events, 1)
	last := res.events[len(res.events)-1]
	if last.Type != EventState || last.State != JobDone {
		t.Fatalf("stream ended on %+v, want state=done", last)
	}
	var sources []exp.RunSource
	for _, ev := range res.events {
		if ev.Type == EventRunDone {
			sources = append(sources, ev.Run.Source)
		}
	}
	if len(sources) != 1 || sources[0] != exp.SourceRemote {
		t.Fatalf("run sources = %v, want exactly one remote completion", sources)
	}
}

// TestConcurrentJobsAttributeOwnRuns pins the cross-job attribution
// bugfix: with two jobs running concurrently, each job's event stream
// and run counters must cover exactly its own runs — the old shared
// progress fanout appended every line to every active job.
func TestConcurrentJobsAttributeOwnRuns(t *testing.T) {
	srv, ts, blocker := blockedServer(t, Config{Workers: 2, QueueDepth: 4})
	defer srv.Close()

	a := submitSweepHTTP(t, ts, SweepRequest{Preset: "base", Sockets: 2, Workloads: []string{"Other-Stream-Triad"}})
	b := submitSweepHTTP(t, ts, SweepRequest{Preset: "base", Sockets: 2, Workloads: []string{"Rodinia-Hotspot"}})
	// Both jobs must be mid-flight together before any run completes.
	waitJobState(t, srv, a.ID, JobRunning)
	waitJobState(t, srv, b.ID, JobRunning)
	unblock(t, srv, blocker, a.ID, b.ID)
	stA := waitJobState(t, srv, a.ID, JobDone)
	stB := waitJobState(t, srv, b.ID, JobDone)

	if stA.RunsDone != 1 || stB.RunsDone != 1 {
		t.Fatalf("runs_done = %d/%d, want 1 each", stA.RunsDone, stB.RunsDone)
	}
	workloadsOf := func(id string) []string {
		var out []string
		for _, ev := range readSSE(t, ts.URL, id, 0) {
			if ev.Type == EventRunDone {
				out = append(out, ev.Run.Workload)
			}
		}
		return out
	}
	wa, wb := workloadsOf(a.ID), workloadsOf(b.ID)
	if len(wa) != 1 || wa[0] != "Other-Stream-Triad" {
		t.Fatalf("job A saw runs %v, want exactly its own workload", wa)
	}
	if len(wb) != 1 || wb[0] != "Rodinia-Hotspot" {
		t.Fatalf("job B saw runs %v, want exactly its own workload", wb)
	}
}

// TestSweepDeltaPlanning is the service-level delta assertion: sweep B
// overlapping an already-finished sweep A by one key simulates exactly
// |B|-1 new runs, reports the overlap in runs_cached, counts it into
// Stats.DeltaHits, and surfaces it on /metrics. The replayed run_done
// of the overlapping key carries the same content-addressed run
// reference as A's — served from cache, never re-simulated.
func TestSweepDeltaPlanning(t *testing.T) {
	srv, err := New(Config{Options: tinyServiceOpts(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	a := submitSweepHTTP(t, ts, SweepRequest{Preset: "base", Sockets: 2, Workloads: []string{"Other-Stream-Triad"}})
	waitJobState(t, srv, a.ID, JobDone)
	if st := srv.RunnerStats(); st.Simulations != 1 || st.DeltaHits != 0 {
		t.Fatalf("after sweep A: %+v", st)
	}

	b := submitSweepHTTP(t, ts, SweepRequest{Preset: "base", Sockets: 2, Workloads: []string{"Other-Stream-Triad", "Rodinia-Hotspot"}})
	stB := waitJobState(t, srv, b.ID, JobDone)
	if st := srv.RunnerStats(); st.Simulations != 2 || st.DeltaHits != 1 {
		t.Fatalf("after sweep B: %+v, want 2 simulations (|A|+|B|-1) and 1 delta hit", st)
	}
	if stB.RunsTotal != 2 || stB.RunsDone != 2 || stB.RunsCached != 1 {
		t.Fatalf("sweep B counters = %+v, want 2 total / 2 done / 1 cached", stB)
	}

	runRefs := func(id string) map[string]exp.RunSource {
		out := map[string]exp.RunSource{}
		for _, ev := range readSSE(t, ts.URL, id, 0) {
			if ev.Type == EventRunDone {
				out[ev.Run.Workload] = ev.Run.Source
			}
		}
		return out
	}
	bRefs := runRefs(b.ID)
	if bRefs["Other-Stream-Triad"] != exp.SourceCached {
		t.Fatalf("overlapping run resolved as %q, want cached", bRefs["Other-Stream-Triad"])
	}
	if bRefs["Rodinia-Hotspot"] != exp.SourceSimulated {
		t.Fatalf("new run resolved as %q, want simulated", bRefs["Rodinia-Hotspot"])
	}
	// The exactly-once reference: B's cached completion names the same
	// content address A's simulation produced.
	refOf := func(id, workload string) string {
		for _, ev := range readSSE(t, ts.URL, id, 0) {
			if ev.Type == EventRunDone && ev.Run.Workload == workload {
				return ev.Run.Run
			}
		}
		return ""
	}
	if ra, rb := refOf(a.ID, "Other-Stream-Triad"), refOf(b.ID, "Other-Stream-Triad"); ra == "" || ra != rb {
		t.Fatalf("run references differ across sweeps: %q vs %q", ra, rb)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "numagpud_delta_hits_total 1\n") {
		t.Fatalf("metrics missing delta hits:\n%s", metrics)
	}
}

// TestEndpointErrorEnvelope asserts every endpoint's failure shape: one
// {"error": {"code", "message"}} envelope with the documented stable
// code and status.
func TestEndpointErrorEnvelope(t *testing.T) {
	srv, err := New(Config{Options: tinyServiceOpts(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Synthesized job states for the /result conflict paths.
	srv.mu.Lock()
	srv.jobs["job-queued"] = &job{id: "job-queued", state: JobQueued}
	srv.jobs["job-bad"] = &job{id: "job-bad", state: JobFailed, err: "boom"}
	srv.mu.Unlock()

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"unknown experiment", "POST", "/v1/experiments/figNaN", "", 404, "not_found"},
		{"unknown job", "GET", "/v1/jobs/job-999", "", 404, "not_found"},
		{"unknown job events", "GET", "/v1/jobs/job-999/events", "", 404, "not_found"},
		{"unknown job result", "GET", "/v1/jobs/job-999/result", "", 404, "not_found"},
		{"bad list limit", "GET", "/v1/jobs?limit=zero", "", 400, "invalid_argument"},
		{"bad list cursor", "GET", "/v1/jobs?after=nope", "", 400, "invalid_argument"},
		{"bad events resume", "GET", "/v1/jobs/job-queued/events", "", 400, "invalid_argument"},
		{"malformed sweep", "POST", "/v1/sweeps", "{nope", 400, "invalid_argument"},
		{"unknown preset", "POST", "/v1/sweeps", `{"preset":"warp-drive"}`, 400, "invalid_argument"},
		{"unfinished result", "GET", "/v1/jobs/job-queued/result", "", 409, "not_ready"},
		{"failed result", "GET", "/v1/jobs/job-bad/result", "", 500, "job_failed"},
		{"malformed fabric run", "POST", "/v1/fabric/runs", "{nope", 400, "invalid_argument"},
		{"unknown worker deregister", "DELETE", "/v1/fabric/workers/nope", "", 410, "unknown_worker"},
		{"unknown worker poll", "POST", "/v1/fabric/poll", `{"worker_id":"nope","seq":1}`, 410, "unknown_worker"},
		{"poll without seq", "POST", "/v1/fabric/poll", `{"worker_id":"nope"}`, 400, "invalid_argument"},
		{"poll with seq 0", "POST", "/v1/fabric/poll", `{"worker_id":"nope","seq":0}`, 400, "invalid_argument"},
		{"register without process", "POST", "/v1/fabric/workers", `{"name":"w","window":1}`, 400, "invalid_argument"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rd io.Reader
			if tc.body != "" {
				rd = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "bad events resume" {
				req.Header.Set("Last-Event-ID", "three")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("HTTP %d, want %d", resp.StatusCode, tc.status)
			}
			var env struct {
				Error APIError `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("body is not the error envelope: %v", err)
			}
			if env.Error.Code != tc.code {
				t.Fatalf("code = %q, want %q", env.Error.Code, tc.code)
			}
			if env.Error.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}

	// The shed-load shape: code mirrors the admission reason and the
	// retry hint rides both the header and the body.
	rec := httptest.NewRecorder()
	writeSubmitError(rec, &admissionError{reason: "queue_full", retryAfter: 3 * time.Second})
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "3" {
		t.Fatalf("shed response = %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	var env struct {
		Error APIError `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "queue_full" || env.Error.RetryAfterMs != 3000 {
		t.Fatalf("shed envelope = %+v", env.Error)
	}

	// Draining: submissions after Close are refused for good.
	srv.Close()
	resp, err := http.Post(ts.URL+"/v1/experiments/fig2", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-Close submit: HTTP %d, want 503", resp.StatusCode)
	}
	env.Error = APIError{}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != "draining" {
		t.Fatalf("post-Close envelope = %+v (err %v), want draining", env.Error, err)
	}
}

// TestDecodeErrorEnvelopeOrRawBody pins the client's one error shape:
// the envelope's code, message and retry hint, and otherwise the raw
// body as the message, including for a bare {"error": "..."} string.
func TestDecodeErrorEnvelopeOrRawBody(t *testing.T) {
	hdr := http.Header{"Retry-After": {"2"}}
	cases := []struct {
		body       string
		code, msg  string
		retryAfter time.Duration
	}{
		{`{"error":{"code":"quota","message":"slow down","retry_after_ms":1500}}`, "quota", "slow down", 1500 * time.Millisecond},
		{`{"error":{"code":"not_found","message":"no such job"}}`, "not_found", "no such job", 2 * time.Second},
		{`{"error":"no such job"}`, "", `{"error":"no such job"}`, 2 * time.Second},
		{"bad gateway", "", "bad gateway", 2 * time.Second},
	}
	for _, tc := range cases {
		got := decodeError(http.StatusBadGateway, hdr, []byte(tc.body))
		if got.Status != http.StatusBadGateway || got.Code != tc.code || got.Message != tc.msg || got.RetryAfter != tc.retryAfter {
			t.Errorf("decodeError(%s) = %+v, want code %q message %q retry %v", tc.body, got, tc.code, tc.msg, tc.retryAfter)
		}
	}
}

// TestVersionSkewEnvelope exercises the fabric submit key-mismatch path
// through the full stack (it needs a valid config to reach the check).
func TestVersionSkewEnvelope(t *testing.T) {
	srv, err := New(Config{Options: tinyServiceOpts(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cfg := srv.runner.Base(2)
	body, _ := json.Marshal(WireRun{Key: "v0|stale-key", Cfg: cfg, Workload: "Other-Stream-Triad", IterScale: 0.1, MaxCTAs: 64})
	resp, err := http.Post(ts.URL+"/v1/fabric/runs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("HTTP %d, want 409: %s", resp.StatusCode, b)
	}
	var env struct {
		Error APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != "version_skew" {
		t.Fatalf("envelope = %+v (err %v), want version_skew", env.Error, err)
	}
}
