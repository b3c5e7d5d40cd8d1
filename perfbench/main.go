// Command perfbench is the repository's benchmark. Each invocation
// runs one workload in this process, checks the program's outputs, and
// prints one JSON line of metrics:
//
//	figures     every experiment of exp.Experiments() regenerated and
//	            rendered on one cold in-process Runner, as
//	            `numagpu -quick all` does
//	serve-warm  nproc clients replaying seeded overlapping sweeps
//	            against an in-process numagpud whose memo set-up warmed
//	serve-cold  a durable coordinator (disk cache and state journal)
//	            from an empty cache, replaying sweeps whose runs no
//	            earlier sweep requested
//
// Usage (from the repository root, see README.md):
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around the calls it makes into each layer, writes them
// as a Chrome trace under the work directory and prints the per-layer
// metrics instead. The command exits 1 if any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, on every workload.
// README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_minstr_per_s", "Mwarp-instr/s"},
	{"paper_agreement", "ratio"},
	{"peak_rss_mb", "MB"},
	{"sweeps_per_s", "1/s"},
	{"sweep_p50_ms", "ms"},
	{"sweep_tail_ms", "ms"},
	{"first_result_p50_ms", "ms"},
}

// perLayer are the metrics a traced run prints, on every workload; a
// layer the workload does not exercise reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"workload.program_s", "s"},
		{"core.build_s", "s"},
		{"core.run_s", "s"},
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"exp.simulations", "count"},
		{"exp.self_s", "s"},
		{"exp.pool_idle_s", "s"},
		{"stats.render_s", "s"},
		{"core.sim_cycles", "cycles"},
		{"smcore.ipc", "instr/cycle"},
		{"gpu.l1_hit_rate", "ratio"},
		{"gpu.l2_local_hit_rate", "ratio"},
		{"gpu.l2_remote_hit_rate", "ratio"},
		{"gpu.flush_lines", "lines"},
		{"mem.dram_bytes", "B"},
		{"vmm.remote_access_ratio", "ratio"},
		{"xlink.link_bytes", "B"},
		{"xlink.lane_turns", "count"},
	}
	for _, c := range claims {
		defs = append(defs, metricDef{"exp.agree." + c.id, "ratio"})
	}
	return append(defs,
		metricDef{"service.submit_ms", "ms"},
		metricDef{"service.queue_wait_ms", "ms"},
		metricDef{"service.exec_ms", "ms"},
		metricDef{"service.result_ms", "ms"},
		metricDef{"service.result_kb", "KB"},
		metricDef{"service.events_per_sweep", "count"},
		metricDef{"service.simulations", "count"},
		metricDef{"service.cache_hits", "count"},
		metricDef{"service.delta_hits", "count"},
		metricDef{"service.journal_kb", "KB"},
	)
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	workdir string // scratch space inside the checkout
	stderr  io.Writer
}

// report is what a workload measured and found.
type report struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	problems          []string // failed output checks
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(runConfig) (*report, error){
	"figures":    runFigures,
	"serve-warm": func(c runConfig) (*report, error) { return runServe(c, false) },
	"serve-cold": func(c runConfig) (*report, error) { return runServe(c, true) },
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: figures, serve-warm or serve-cold")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 20, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "1: record spans and print the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for temporary caches and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: perfbench --workload figures|serve-warm|serve-cold --seed n --seconds n --trace 0|1\n")
		return 2
	}
	abs, err := filepath.Abs(*workdir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, workdir: abs, stderr: stderr}
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if !cfg.traced {
		rep.e2e["peak_rss_mb"] = peakRSSMB()
	}
	out := output{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	defs, values := endToEnd, rep.e2e
	if cfg.traced {
		defs, values = perLayer(), rep.layer
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.traced {
			rep.problem("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problem("metric %s is %v", d.name, v)
			v = 0
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "CHECK FAILED: %s\n", p)
	}
	out.Correct = len(rep.problems) == 0
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !out.Correct || rep.failed > 0 || rep.attempted < 1 {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// cpuTime is the user plus system CPU time of every thread of the
// process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// nproc is the number of CPUs the Go scheduler runs goroutines on: the
// bound on simulating goroutines and client connections.
func nproc() int { return runtime.GOMAXPROCS(0) }

// tempDir makes a fresh directory under the work directory.
func tempDir(workdir, pattern string) (string, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workdir, pattern)
}
