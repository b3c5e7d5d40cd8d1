package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/workload"
)

// Set-up repetitions for the setup_s median. A warm set-up simulates
// the whole filled set, so it is repeated fewer times. A cold set-up
// takes about 50 ms; with 5 repetitions its median spread by 0.28 of
// itself over ten runs.
const (
	warmSetupReps = 3
	coldSetupReps = 15
)

// Tail percentiles: each leaves at least ten samples beyond it at the
// sweep counts two CPUs reach in twenty seconds (about 45,000 warm
// sweeps and 400 cold ones). Warm uses p90 too: its p99 moved by 0.30
// of its median between runs.
const (
	warmTail = 0.90
	coldTail = 0.90
)

// sweepTimeout bounds one sweep, so a stuck job fails the run instead
// of hanging it.
const sweepTimeout = 60 * time.Second

// coordinator is one in-process numagpud behind a loopback listener.
type coordinator struct {
	dir       string // cache and state directories; empty when not durable
	srv       *service.Server
	ts        *httptest.Server
	transport *http.Transport
	client    *service.Client
}

// startCoordinator starts a coordinator and waits until it reports
// ready. With no fill it is the durable daemon `numagpud -cache` runs,
// over an empty disk cache and state journal. With fill it keeps its
// results in memory only and serves the fill sweeps before returning,
// so every run they cover resolves from the memo afterwards.
func startCoordinator(workdir string, opts exp.Options, fill []sweep) (co *coordinator, err error) {
	cfg := service.Config{Options: opts, Workers: nproc()}
	co = &coordinator{}
	if len(fill) == 0 {
		if co.dir, err = tempDir(workdir, "serve-*"); err != nil {
			return nil, err
		}
		cfg.CacheDir = filepath.Join(co.dir, "cache")
		cfg.StateDir = filepath.Join(co.dir, "state")
	}
	if co.srv, err = service.New(cfg); err != nil {
		os.RemoveAll(co.dir)
		return nil, err
	}
	co.ts = httptest.NewServer(co.srv)
	co.transport = &http.Transport{MaxIdleConnsPerHost: nproc()}
	co.client = &service.Client{BaseURL: co.ts.URL, HTTPClient: &http.Client{Transport: co.transport}}
	defer func() {
		if err != nil {
			co.close()
		}
	}()
	resp, err := co.client.HTTPClient.Get(co.ts.URL + "/healthz/ready")
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("coordinator not ready: HTTP %d", resp.StatusCode)
	}
	var ids []string
	for i := range fill {
		st, err := co.client.SubmitSweep(fill[i].req)
		if err != nil {
			return nil, fmt.Errorf("fill: %w", err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), sweepTimeout)
	defer cancel()
	for _, id := range ids {
		if _, err := co.client.Wait(ctx, id, 10*time.Millisecond); err != nil {
			return nil, fmt.Errorf("fill: %w", err)
		}
	}
	return co, nil
}

// close stops the listener, drains and closes the coordinator, and
// removes its cache and state directories.
func (co *coordinator) close() {
	co.ts.Close()
	co.srv.Close()
	co.transport.CloseIdleConnections()
	if co.dir != "" {
		os.RemoveAll(co.dir)
	}
}

// sample is what one client saw of one sweep. It keeps timings and
// what the event stream showed, not the result: result bytes are kept
// once per corpus entry (see runServe), so memory does not grow with
// the number of sweeps served.
type sample struct {
	idx     int // corpus index
	jobID   string
	err     error
	problem string    // first inconsistency seen in the event stream or result
	t0      time.Time // submit sent
	t1      time.Time // submit answered
	running time.Time // state=running event received
	first   time.Time // first run_done event received
	end     time.Time // terminal state event received
	t3, t4  time.Time // result fetch
	events  int       // events received
	runs    int       // run_done events
	fresh   int       // run_done events whose run was simulated for this sweep
	bodyLen int
}

// doSweep submits one sweep, follows its event stream to the end and
// fetches its result, timing each step on the client side and checking
// that event ids are dense from 1 and that the stream ends in exactly
// one terminal state event, state=done.
func doSweep(c *service.Client, sw *sweep) (sample, []byte) {
	s := sample{t0: time.Now()}
	st, err := c.SubmitSweep(sw.req)
	s.t1 = time.Now()
	if err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s, nil
	}
	s.jobID = st.ID
	ctx, cancel := context.WithTimeout(context.Background(), sweepTimeout)
	defer cancel()
	terminals := 0
	var last service.JobEvent
	err = c.StreamJob(ctx, st.ID, func(ev service.JobEvent) error {
		at := time.Now()
		s.events++
		if ev.ID != s.events && s.problem == "" {
			s.problem = fmt.Sprintf("event %d has id %d; ids are not dense", s.events, ev.ID)
		}
		switch {
		case ev.Type == service.EventState && ev.State == service.JobRunning:
			s.running = at
		case ev.Type == service.EventState && (ev.State == service.JobDone || ev.State == service.JobFailed):
			s.end = at
			terminals++
		case ev.Type == service.EventRunDone && ev.Run != nil:
			if s.first.IsZero() {
				s.first = at
			}
			s.runs++
			if ev.Run.Source == exp.SourceSimulated {
				s.fresh++
			}
		}
		last = ev
		return nil
	})
	if err != nil {
		s.err = fmt.Errorf("events of %s: %w", st.ID, err)
		return s, nil
	}
	if terminals != 1 || last.Type != service.EventState || last.State != service.JobDone {
		s.problem = fmt.Sprintf("%d terminal state events; the stream ended with %s %s", terminals, last.Type, last.State)
	}
	s.t3 = time.Now()
	body, err := c.Result(st.ID)
	s.t4 = time.Now()
	if err != nil {
		s.err = fmt.Errorf("result of %s: %w", st.ID, err)
		return s, nil
	}
	s.bodyLen = len(body)
	return s, body
}

// scrape reads the coordinator's Prometheus counters by series name.
func scrape(c *service.Client) (map[string]float64, error) {
	text, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

func runServe(c runConfig, cold bool) (*report, error) {
	rep := newReport()
	name, reps, tail := "serve-warm", warmSetupReps, warmTail
	if cold {
		name, reps, tail = "serve-cold", coldSetupReps, coldTail
	}
	// r only derives configurations and run keys; it never simulates.
	opts := serveOptions(cold)
	r := exp.NewRunner(opts)
	var sweeps, fill []sweep
	var err error

	// Set-up, repeated for the median: derive the corpus, start the
	// coordinator and (warm only) serve the fill sweeps. The last
	// coordinator serves the timed phase.
	var setups []float64
	var co *coordinator
	for i := 0; i < reps; i++ {
		if co != nil {
			co.close()
		}
		t := time.Now()
		if cold {
			sweeps, err = coldCorpus(r, c.seed)
		} else {
			sweeps, fill, err = warmCorpus(r, c.seed)
		}
		if err != nil {
			return nil, err
		}
		if co, err = startCoordinator(c.workdir, opts, fill); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	closed := false
	defer func() {
		if !closed {
			co.close()
		}
	}()
	before, err := scrape(co.client)
	if err != nil {
		return nil, err
	}
	cacheBefore, err := co.client.CacheStats()
	if err != nil {
		return nil, err
	}

	// Timed phase: nproc closed-loop clients, each waiting for its own
	// sweep before taking the next one off the corpus. The same request
	// must always come back with the same bytes, so only the first
	// result of each corpus entry is kept.
	var next atomic.Int64
	per := make([][]sample, nproc())
	var bodyMu sync.Mutex
	bodies := map[int][]byte{}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(c.seconds)
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if cold && i >= len(sweeps) {
					return // every key of the corpus has been served once
				}
				s, body := doSweep(co.client, &sweeps[i%len(sweeps)])
				s.idx = i % len(sweeps)
				if body != nil {
					bodyMu.Lock()
					if prev, ok := bodies[s.idx]; !ok {
						bodies[s.idx] = body
					} else if !bytes.Equal(prev, body) && s.problem == "" {
						s.problem = "result bytes differ from an earlier run of the same request"
					}
					bodyMu.Unlock()
				}
				per[w] = append(per[w], s)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	after, err := scrape(co.client)
	if err != nil {
		return nil, err
	}
	cacheAfter, err := co.client.CacheStats()
	if err != nil {
		return nil, err
	}
	co.close()
	closed = true

	var samples []sample
	for _, s := range per {
		samples = append(samples, s...)
	}
	rep.attempted = len(samples)
	byKey, cfgOf, instrOf := checkSweeps(rep, sweeps, samples, bodies, cold)
	sims := after["numagpud_simulations_total"] - before["numagpud_simulations_total"]
	if cold && sims != float64(len(byKey)) {
		rep.problem("served %d unique keys but the coordinator ran %v simulations", len(byKey), sims)
	}
	if !cold && sims != 0 {
		rep.problem("the warm coordinator ran %v simulations", sims)
	}
	verify(rep, opts, byKey, cfgOf)

	var lat, first, submit, queue, execute, fetch, kb, events []float64
	var instr uint64
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		lat = append(lat, ms(s.t4.Sub(s.t0)))
		first = append(first, ms(s.first.Sub(s.t0)))
		submit = append(submit, ms(s.t1.Sub(s.t0)))
		queue = append(queue, ms(s.running.Sub(s.t1)))
		execute = append(execute, ms(s.end.Sub(s.running)))
		fetch = append(fetch, ms(s.t4.Sub(s.t3)))
		kb = append(kb, float64(s.bodyLen)/1024)
		events = append(events, float64(s.events))
		instr += instrOf[s.idx]
	}
	agreePer, agree := sliceAgreement(rep, r, byKey)
	e := rep.e2e
	e["setup_s"] = median(setups)
	e["wall_s"] = wall.Seconds()
	e["sim_minstr_per_s"] = float64(instr) / wall.Seconds() / 1e6
	e["paper_agreement"] = agree
	e["sweeps_per_s"] = float64(len(lat)) / wall.Seconds()
	e["sweep_p50_ms"] = median(lat)
	e["sweep_tail_ms"] = percentile(lat, tail)
	e["first_result_p50_ms"] = median(first)
	fmt.Fprintf(c.stderr, "%s: %d sweeps in %.3fs (%d unique keys, %v simulations), p50 %.3fms, p%g %.3fms (%d samples beyond), setup %.4fs\n",
		name, len(lat), wall.Seconds(), len(byKey), sims, e["sweep_p50_ms"], 100*tail, e["sweep_tail_ms"],
		len(lat)-int(float64(len(lat))*tail+0.5), e["setup_s"])
	if !c.traced {
		return rep, nil
	}

	l := rep.layer
	l["service.submit_ms"] = median(submit)
	l["service.queue_wait_ms"] = median(queue)
	l["service.exec_ms"] = median(execute)
	l["service.result_ms"] = median(fetch)
	l["service.result_kb"] = mean(kb)
	l["service.events_per_sweep"] = mean(events)
	l["service.simulations"] = sims
	l["service.cache_hits"] = float64(cacheAfter.Hits - cacheBefore.Hits)
	l["service.delta_hits"] = after["numagpud_delta_hits_total"] - before["numagpud_delta_hits_total"]
	l["service.journal_kb"] = after["numagpud_journal_bytes"] / 1024
	for id, a := range agreePer {
		l["exp.agree."+id] = a
	}
	tr := &tracer{}
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		tr.add(span{name: "sweep", id: s.jobID, start: s.t0, end: s.t4, count: uint64(len(sweeps[s.idx].keys))})
		tr.add(span{name: "submit", id: s.jobID, parent: "sweep", start: s.t0, end: s.t1})
		tr.add(span{name: "queue_wait", id: s.jobID, parent: "sweep", start: s.t1, end: s.running})
		tr.add(span{name: "execute", id: s.jobID, parent: "sweep", start: s.running, end: s.end, count: uint64(s.events)})
		tr.add(span{name: "result", id: s.jobID, parent: "sweep", start: s.t3, end: s.t4, count: uint64(s.bodyLen)})
	}
	return rep, tr.write(filepath.Join(c.workdir, "perfbench-trace", fmt.Sprintf("%s-seed%d.json", name, c.seed)))
}

// checkSweeps checks every sweep's outcome and the shape of every
// distinct result, and collects each served run's result (JSON) and
// configuration by run key, and the warp instructions each corpus
// entry's result carries. A key served by two corpus entries must come
// back byte-identical.
func checkSweeps(rep *report, sweeps []sweep, samples []sample, bodies map[int][]byte, cold bool) (map[string][]byte, map[string]arch.Config, map[int]uint64) {
	for _, s := range samples {
		sw := &sweeps[s.idx]
		switch {
		case s.err != nil:
			rep.failed++
			rep.problem("%v", s.err)
		case s.problem != "":
			rep.problem("%s: %s", s.jobID, s.problem)
		case s.running.IsZero() || s.first.IsZero():
			rep.problem("%s: no running state or run_done event", s.jobID)
		case s.runs != len(sw.keys):
			rep.problem("%s: %d run_done events for %d runs", s.jobID, s.runs, len(sw.keys))
		case cold && s.fresh != s.runs:
			rep.problem("%s: %d of %d runs were not simulated on a cold coordinator", s.jobID, s.runs-s.fresh, s.runs)
		case !cold && s.fresh != 0:
			rep.problem("%s: %d runs were simulated on a warm coordinator", s.jobID, s.fresh)
		}
	}
	byKey := map[string][]byte{}
	cfgOf := map[string]arch.Config{}
	instrOf := map[int]uint64{}
	for idx, body := range bodies {
		sw := &sweeps[idx]
		var res service.SweepResult
		if err := json.Unmarshal(body, &res); err != nil {
			rep.problem("decode result of %v: %v", sw.req.Workloads, err)
			continue
		}
		if len(res.Results) != len(sw.keys) {
			rep.problem("%d results for %d workloads", len(res.Results), len(sw.keys))
			continue
		}
		for i, r := range res.Results {
			if r.Name != sw.req.Workloads[i] {
				rep.problem("result %d is %s, requested %s", i, r.Name, sw.req.Workloads[i])
				continue
			}
			b, err := json.Marshal(r)
			if err != nil {
				rep.problem("%v", err)
				continue
			}
			key := sw.keys[i]
			if prev, ok := byKey[key]; ok && !bytes.Equal(prev, b) {
				rep.problem("%s came back different in two sweeps", r.Name)
			}
			byKey[key] = b
			cfgOf[key] = sw.cfg
			instrOf[idx] += r.Instructions
		}
	}
	return byKey, cfgOf, instrOf
}

// verify simulates every served (configuration, workload) directly on
// core, outside the timed phase, and compares the results with what
// the service returned.
func verify(rep *report, o exp.Options, byKey map[string][]byte, cfgOf map[string]arch.Config) {
	specs := map[string]workload.Spec{}
	for _, s := range workload.Table() {
		specs[s.Name] = s
	}
	wopts := workload.Options{IterScale: o.IterScale, MaxCTAs: o.MaxCTAs}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				key := keys[i]
				var served core.Result
				problem := ""
				if err := json.Unmarshal(byKey[key], &served); err != nil {
					problem = err.Error()
				} else if sys, err := core.NewSystem(cfgOf[key]); err != nil {
					problem = fmt.Sprintf("%s: %v", served.Name, err)
				} else {
					direct, _ := json.Marshal(sys.Run(specs[served.Name].Program(wopts)))
					if !bytes.Equal(direct, byKey[key]) {
						problem = fmt.Sprintf("%s: served result differs from a direct simulation (key %s)", served.Name, key)
					}
				}
				if problem != "" {
					mu.Lock()
					rep.problem("%s", problem)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
}

// sliceAgreement computes the Figure 11 summary over the slice
// workloads from the served results and scores it against the
// paper's Figure 11 claims.
func sliceAgreement(rep *report, r *exp.Runner, byKey map[string][]byte) (map[string]float64, float64) {
	cycles := func(cfg arch.Config, spec workload.Spec) float64 {
		var res core.Result
		if err := json.Unmarshal(byKey[r.RunKey(cfg, spec)], &res); err != nil || res.Cycles == 0 {
			rep.problem("the slice run of %s was not served", spec.Name)
			return 1
		}
		return float64(res.Cycles)
	}
	sum := map[string]float64{}
	for _, n := range []int{2, 4, 8} {
		var numa, mono []float64
		for _, spec := range sliceWorkloads() {
			one := cycles(r.Base(1), spec)
			numa = append(numa, one/cycles(r.NUMAAware(n), spec))
			mono = append(mono, one/cycles(r.Monolithic(n), spec))
		}
		sum[fmt.Sprintf("numa_%d_geomean", n)] = geomean(numa)
		sum[fmt.Sprintf("efficiency_%d_pct", n)] = 100 * geomean(numa) / geomean(mono)
	}
	return score(map[string]map[string]float64{"fig11": sum})
}
