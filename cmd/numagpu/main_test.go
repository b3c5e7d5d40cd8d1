package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/service"
)

func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range exp.Experiments() {
		if e.Name == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("incomplete registry entry %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate experiment name %q", e.Name)
		}
		if e.Name == "all" {
			t.Fatal("'all' is reserved")
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"table1", "table2", "fig2", "fig3", "fig5", "fig6",
		"fig8", "fig9", "fig10", "fig11", "switchtime", "writepolicy", "power",
		"lanegran", "tenancy"} {
		if !seen[want] {
			t.Fatalf("missing experiment %q", want)
		}
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]float64{"b": 2, "a": 1, "c": 3}
	keys := sortedKeys(m)
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("sortedKeys = %v", keys)
	}
}

// The run() tests below only use experiments that need no simulation
// (table1, table2, fig2 are pure config/metadata), so they are fast
// even at full default scale.

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunNoArgsUsage(t *testing.T) {
	code, _, stderr := runCLI(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "usage: numagpu") || !strings.Contains(stderr, "lanegran") {
		t.Fatalf("usage must list every experiment:\n%s", stderr)
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	code, _, stderr := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("-h exit %d, want 0 (scripts smoke-test with it)", code)
	}
	if !strings.Contains(stderr, "usage: numagpu") {
		t.Fatalf("-h must print usage:\n%s", stderr)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	code, _, stderr := runCLI(t, "figNaN")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown experiment "figNaN"`) {
		t.Fatalf("stderr missing unknown-experiment diagnostic:\n%s", stderr)
	}
}

func TestRunBadFlag(t *testing.T) {
	code, _, stderr := runCLI(t, "-j", "not-a-number", "fig2")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "invalid value") {
		t.Fatalf("stderr missing flag parse error:\n%s", stderr)
	}
}

func TestRunTextOutput(t *testing.T) {
	code, stdout, _ := runCLI(t, "-j", "2", "fig2")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.Contains(stdout, "Figure 2") || !strings.Contains(stdout, "summary:") {
		t.Fatalf("text output missing table or summary:\n%s", stdout)
	}
}

func TestRunJSONOutput(t *testing.T) {
	code, stdout, _ := runCLI(t, "-json", "fig2")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	var payload struct {
		Experiment string `json:"experiment"`
		Table      struct {
			Title   string     `json:"title"`
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		} `json:"table"`
		Summary map[string]float64 `json:"summary"`
	}
	if err := json.Unmarshal([]byte(stdout), &payload); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout)
	}
	if payload.Experiment != "fig2" || len(payload.Table.Columns) != 4 || len(payload.Table.Rows) != 4 {
		t.Fatalf("unexpected JSON payload: %+v", payload)
	}
	if payload.Summary["fill_1x_pct"] != 100 {
		t.Fatalf("summary lost in JSON: %v", payload.Summary)
	}
	if strings.Contains(stdout, "summary:") || strings.Contains(stdout, "elapsed:") {
		t.Fatalf("-json must suppress the text epilogue:\n%s", stdout)
	}
}

// TestRunFollowOutput pins the -follow contract: stderr gains one
// "done <workload> <source> <cycles>" line per unique completed run,
// and stdout stays byte-identical to a run without the flag.
func TestRunFollowOutput(t *testing.T) {
	args := []string{"-iterscale", "0.01", "-divisor", "16", "-j", "1", "-golden", "fig3"}
	code, plain, _ := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("baseline exit %d, want 0", code)
	}
	code, followed, stderr := runCLI(t, append([]string{"-follow"}, args...)...)
	if code != 0 {
		t.Fatalf("-follow exit %d, want 0", code)
	}
	if followed != plain {
		t.Fatalf("-follow changed stdout:\n--- without ---\n%s\n--- with ---\n%s", plain, followed)
	}
	lines := 0
	for _, line := range strings.Split(stderr, "\n") {
		if !strings.HasPrefix(line, "done ") {
			continue
		}
		lines++
		if !strings.Contains(line, "simulated") || !strings.Contains(line, "cycles") {
			t.Fatalf("malformed -follow line: %q", line)
		}
	}
	// fig3 runs the full workload set across three policy configs; every
	// unique run reports exactly once.
	if lines == 0 {
		t.Fatalf("-follow produced no per-run lines:\n%s", stderr)
	}
}

// TestRunVerboseIsFollow: -v is -follow under its older name, so the
// two write the same per-run lines.
func TestRunVerboseIsFollow(t *testing.T) {
	args := []string{"-divisor", "16", "-iterscale", "0.1", "-j", "1", "-golden", "tenancy"}
	_, _, follow := runCLI(t, append([]string{"-follow"}, args...)...)
	_, _, verbose := runCLI(t, append([]string{"-v"}, args...)...)
	if !strings.Contains(verbose, " simulated ") || verbose != follow {
		t.Fatalf("-v and -follow logged different lines:\n--- -follow ---\n%s\n--- -v ---\n%s", follow, verbose)
	}
}

func TestRunJSONDeterministic(t *testing.T) {
	_, a, _ := runCLI(t, "-json", "table2")
	_, b, _ := runCLI(t, "-json", "table2")
	if a != b {
		t.Fatal("-json output must be byte-identical across runs")
	}
}

func TestRunGoldenOutput(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-golden", "fig2")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
	}
	// The golden format is table + "summary:" block + "-- csv --" block,
	// with no elapsed line (it must be byte-stable across runs).
	for _, want := range []string{"Figure 2", "\nsummary:\n", "-- csv --\n"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("-golden output missing %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "elapsed:") {
		t.Fatalf("-golden output must be time-independent:\n%s", stdout)
	}
	_, again, _ := runCLI(t, "-golden", "fig2")
	if stdout != again {
		t.Fatal("-golden output must be byte-identical across runs")
	}
}

func TestRunShardedGoldenIdentical(t *testing.T) {
	// -remote only moves the simulations: with every run leased as a
	// shard to the workers of a coordinator, the golden rendering must
	// be byte-identical to the local run of the same experiment.
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	args := []string{"-divisor", "16", "-iterscale", "0.1", "-golden", "tenancy"}
	code, local, stderr := runCLI(t, append([]string{"-v"}, args...)...)
	if code != 0 {
		t.Fatalf("local exit %d, want 0 (stderr: %s)", code, stderr)
	}
	runs := uint64(strings.Count(stderr, " simulated "))
	if runs == 0 {
		t.Fatalf("local run simulated nothing (stderr: %s)", stderr)
	}

	srv, err := service.New(service.Config{
		Options:    exp.Options{Divisor: 16, IterScale: 0.1},
		Workers:    1,
		FabricPoll: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts := httptest.NewServer(srv)
	defer srv.Close()
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var workers []*service.Worker
	stopped := make(chan error, 2)
	for _, name := range []string{"wA", "wB"} {
		w := service.NewWorker(service.WorkerConfig{
			CoordinatorURL: ts.URL, Name: name, Window: 1, Poll: 10 * time.Millisecond,
		})
		workers = append(workers, w)
		go func() { stopped <- w.Run(ctx) }()
	}
	defer func() {
		cancel()
		for range workers {
			if err := <-stopped; err != nil {
				t.Errorf("worker drain: %v", err)
			}
		}
	}()
	client := service.NewClient(ts.URL)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		m, err := client.Metrics()
		if err == nil && strings.Contains(m, "numagpud_fabric_workers 2\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never registered (metrics err %v):\n%s", err, m)
		}
	}

	code, sharded, stderr := runCLI(t, append([]string{"-remote", ts.URL}, args...)...)
	if code != 0 {
		t.Fatalf("sharded exit %d, want 0 (stderr: %s)", code, stderr)
	}
	if local != sharded {
		t.Fatal("-remote output with the runs sharded over two workers diverged from the local -golden output")
	}
	if got := workers[0].Stats().Simulations + workers[1].Stats().Simulations; got != runs {
		t.Fatalf("workers simulated %d runs, want all %d", got, runs)
	}
}

func TestRunGoldenJSONExclusive(t *testing.T) {
	code, _, stderr := runCLI(t, "-golden", "-json", "fig2")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "mutually exclusive") {
		t.Fatalf("stderr missing exclusivity diagnostic:\n%s", stderr)
	}
}

func TestRunRemoteUnreachable(t *testing.T) {
	// A dead coordinator must fail the experiment with a clean exit
	// code and diagnostic, not silently simulate locally (the user
	// asked for remote execution) and not crash with a stack trace.
	// The default retry budget would sleep about 29 s of backoff
	// against the dead port before failing.
	defer func(f func(string) *service.FabricClient) { newFabricClient = f }(newFabricClient)
	newFabricClient = func(base string) *service.FabricClient {
		return &service.FabricClient{BaseURL: base, Retries: 2, Backoff: time.Millisecond}
	}
	code, _, stderr := runCLI(t, "-remote", "http://127.0.0.1:1", "-iterscale", "0.01", "fig3")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "fig3:") || !strings.Contains(stderr, "fabric submit") {
		t.Fatalf("stderr missing remote failure diagnostic:\n%s", stderr)
	}
}

func TestRunTopologyValidate(t *testing.T) {
	// The shipped example topologies must validate — CI loops every
	// examples/*.json through this exact invocation.
	for _, f := range []string{"asym-pairs.json", "crossbar-4.json"} {
		path := filepath.Join("..", "..", "examples", f)
		code, stdout, stderr := runCLI(t, "-topology", path, "-validate")
		if code != 0 {
			t.Fatalf("%s: exit %d, want 0 (stderr: %s)", f, code, stderr)
		}
		if !strings.Contains(stdout, "valid") || !strings.Contains(stdout, "canonical: n4.") {
			t.Fatalf("%s: validate output missing verdict or canonical:\n%s", f, stdout)
		}
	}
}

func TestRunTopologyInvalid(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"sockets":[{},{}],"links":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "-topology", bad, "-validate")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "topology:") {
		t.Fatalf("stderr missing topology diagnostic:\n%s", stderr)
	}
	code, _, _ = runCLI(t, "-topology", filepath.Join(t.TempDir(), "nope.json"), "-validate")
	if code != 1 {
		t.Fatalf("missing file: exit %d, want 1", code)
	}
}

func TestRunValidateRequiresTopology(t *testing.T) {
	code, _, stderr := runCLI(t, "-validate")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "-validate requires -topology") {
		t.Fatalf("stderr missing diagnostic:\n%s", stderr)
	}
}

func TestRunDumpTopology(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-dump-topology", "base")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
	}
	// The synthesized crossbar: 4 socket links into one switch node.
	if !strings.Contains(stdout, `"switches": 1`) || !strings.Contains(stdout, "canonical: n4.x1.") {
		t.Fatalf("dump missing synthesized crossbar:\n%s", stdout)
	}
	// An explicit -topology flows through to matching presets.
	code, stdout, _ = runCLI(t, "-topology", filepath.Join("..", "..", "examples", "asym-pairs.json"), "-dump-topology", "numa-aware")
	if code != 0 || !strings.Contains(stdout, "canonical: n4.x0.") {
		t.Fatalf("dump must show the explicit topology (exit %d):\n%s", code, stdout)
	}
	// Monolithic has no inter-socket fabric.
	code, stdout, _ = runCLI(t, "-dump-topology", "monolithic")
	if code != 0 || !strings.Contains(stdout, "no inter-socket fabric") {
		t.Fatalf("monolithic dump (exit %d):\n%s", code, stdout)
	}
	code, _, stderr = runCLI(t, "-dump-topology", "nope")
	if code != 2 || !strings.Contains(stderr, "unknown preset") {
		t.Fatalf("unknown preset: exit %d, stderr:\n%s", code, stderr)
	}
}

func TestRunTraceRequiresObsDir(t *testing.T) {
	code, _, stderr := runCLI(t, "-trace", "fig2")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "-trace requires -obs-dir") {
		t.Fatalf("stderr missing diagnostic:\n%s", stderr)
	}
}

func TestRunObsOutput(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runCLI(t, "-iterscale", "0.01", "-divisor", "16", "-obs-dir", dir, "-trace", "fig3")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "observability output in") {
		t.Fatalf("stderr missing obs note:\n%s", stderr)
	}
	runs, err := filepath.Glob(filepath.Join(dir, "*", "series.csv"))
	if err != nil || len(runs) == 0 {
		t.Fatalf("no series.csv written under %s (err %v)", dir, err)
	}
	sub := filepath.Dir(runs[0])
	b, err := os.ReadFile(runs[0])
	if err != nil || !strings.HasPrefix(string(b), "series,cycle,value\n") {
		t.Fatalf("series.csv header wrong (err %v): %.40q", err, string(b))
	}
	var doc struct {
		SamplePeriod int `json:"sample_period"`
		Series       []struct {
			Name    string       `json:"name"`
			Samples [][2]float64 `json:"samples"`
		} `json:"series"`
	}
	jb, err := os.ReadFile(filepath.Join(sub, "series.json"))
	if err != nil {
		t.Fatalf("series.json not written: %v", err)
	}
	if err := json.Unmarshal(jb, &doc); err != nil || doc.SamplePeriod == 0 || len(doc.Series) == 0 {
		t.Fatalf("series.json malformed (err %v): %.80q", err, string(jb))
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	tb, err := os.ReadFile(filepath.Join(sub, "trace.json"))
	if err != nil {
		t.Fatalf("trace.json not written: %v", err)
	}
	if err := json.Unmarshal(tb, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("trace.json malformed (err %v): %.80q", err, string(tb))
	}
}

// TestRunObsFig5: fig5 simulates its observed run outside the Runner,
// and under -obs-dir it still writes that run's series, into one run
// directory, while its table stays as it is without observation.
func TestRunObsFig5(t *testing.T) {
	args := []string{"-iterscale", "0.01", "-divisor", "16", "-golden", "fig5"}
	_, plain, _ := runCLI(t, args...)
	dir := t.TempDir()
	code, observed, stderr := runCLI(t, append([]string{"-obs-dir", dir}, args...)...)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
	}
	if observed != plain {
		t.Fatalf("-obs-dir changed fig5's output:\n--- without ---\n%s\n--- with ---\n%s", plain, observed)
	}
	runs, err := os.ReadDir(dir)
	if err != nil || len(runs) != 1 || !runs[0].IsDir() {
		t.Fatalf("want one run directory under %s, got %v (err %v)", dir, runs, err)
	}
	for _, name := range []string{"series.csv", "series.json"} {
		b, err := os.ReadFile(filepath.Join(dir, runs[0].Name(), name))
		if err != nil || len(b) == 0 {
			t.Fatalf("%s missing or empty (err %v)", name, err)
		}
	}
}

func TestRunCSVOutput(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runCLI(t, "-csv", dir, "table2")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
	}
	b, err := os.ReadFile(filepath.Join(dir, "table2.csv"))
	if err != nil {
		t.Fatalf("csv not written: %v", err)
	}
	if !strings.HasPrefix(string(b), "Workload,") {
		t.Fatalf("csv header wrong: %q", string(b[:40]))
	}
}

func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, _, stderr := runCLI(t, "-cpuprofile", cpu, "-memprofile", mem, "table1")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestRunCPUProfileBadPath(t *testing.T) {
	code, _, stderr := runCLI(t, "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir"), "table1")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "cpuprofile:") {
		t.Fatalf("stderr missing cpuprofile error:\n%s", stderr)
	}
}

func TestRunCSVBadDir(t *testing.T) {
	code, _, stderr := runCLI(t, "-csv", filepath.Join(t.TempDir(), "missing", "nested"), "table1")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "csv:") {
		t.Fatalf("stderr missing csv error:\n%s", stderr)
	}
}
