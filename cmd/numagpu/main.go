// Command numagpu regenerates the tables and figures of "Beyond the
// Socket: NUMA-Aware GPUs" (Milic et al., MICRO 2017) from the Go
// reproduction in this repository.
//
// Usage:
//
//	numagpu [flags] <experiment>...
//
// Experiments: table1 table2 fig2 fig3 fig5 fig6 fig8 fig9 fig10 fig11
// switchtime writepolicy power lanegran tenancy all
//
// Flags:
//
//	-iterscale f   scale workload iteration counts (default 1.0)
//	-divisor n     architecture scale divisor vs the paper machine (default 8)
//	-quick         shorthand for -iterscale 0.25
//	-j n           simulations to run in parallel (default GOMAXPROCS)
//	-topology f    load an explicit link-graph topology from a JSON file
//	               (docs/TOPOLOGY.md) and apply it to every configuration
//	               whose socket count matches; nil keeps the synthesized
//	               symmetric crossbar
//	-validate      with -topology: parse + validate the file, print its
//	               canonical encoding, and exit (nonzero on schema errors)
//	-dump-topology p  print the effective topology of preset p (base,
//	               traditional, numa-aware or monolithic) as JSON and exit
//	-remote url    execute the simulations on a numagpud sweep-fabric
//	               coordinator instead of in-process; tables are still
//	               rendered locally, byte-identical to a local run.
//	               Raise -j to the cluster's total worker window to
//	               keep a multi-worker fabric busy
//	-follow, -v    write one line per completed run on stderr as
//	               results land (workload, how it resolved — simulated,
//	               cached or remote — and cycles). Stdout is
//	               untouched: final tables stay byte-identical
//	-obs-dir dir   enable the observability layer: write each run's
//	               time series (series.csv + series.json) into
//	               dir/<workload>-<key hash>/. Sampling is read-only
//	               and results stay byte-identical; observed runs
//	               always simulate locally (cache reads and -remote
//	               are bypassed for them). See docs/OBSERVABILITY.md
//	-trace         with -obs-dir: also write a Chrome/Perfetto
//	               trace.json per run (kernel waves, cross-socket
//	               transfers, drain phases)
//	-csv dir       also write each experiment's table as CSV into dir
//	-json          print each experiment as a JSON object instead of text
//	-golden        print each experiment in the golden-master fixture
//	               format (internal/exp/testdata/golden), for byte
//	               comparison against the committed fixtures
//	-cpuprofile f  write a CPU profile of the run to f
//	-memprofile f  write a heap profile (after GC) to f on exit
//
// See docs/EXPERIMENTS.md for what each experiment reproduces and the
// meaning of its summary keys. The long-running numagpud daemon
// (cmd/numagpud) serves the same experiments over HTTP with a
// persistent result cache and coordinates the distributed sweep fabric
// behind -remote.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/topo"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// newFabricClient builds the -remote backend; tests swap in a client
// with a short retry budget.
var newFabricClient = service.NewFabricClient

// run is main with its environment injected for tests: it parses args,
// executes the requested experiments, and returns the process exit code
// (0 success, 1 runtime failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("numagpu", flag.ContinueOnError)
	fs.SetOutput(stderr)
	iterScale := fs.Float64("iterscale", 1.0, "workload iteration scale")
	divisor := fs.Int("divisor", 8, "architecture scale divisor")
	quick := fs.Bool("quick", false, "quick mode (iterscale 0.25)")
	parallel := fs.Int("j", runtime.GOMAXPROCS(0), "simulations to run in parallel")
	remote := fs.String("remote", "", "numagpud coordinator URL: execute simulations on the sweep fabric")
	follow := fs.Bool("follow", false, "write one line per completed run on stderr as results land")
	fs.BoolVar(follow, "v", false, "same as -follow")
	topoPath := fs.String("topology", "", "topology JSON file replacing the synthesized crossbar (docs/TOPOLOGY.md)")
	validate := fs.Bool("validate", false, "with -topology: validate the file, print its canonical encoding, and exit")
	dumpPreset := fs.String("dump-topology", "", "print the effective topology of this preset (base|traditional|numa-aware|monolithic) and exit")
	obsDir := fs.String("obs-dir", "", "write per-run observability time series into this directory (enables sampling)")
	traceOut := fs.Bool("trace", false, "with -obs-dir: also write a Chrome/Perfetto trace.json per run")
	csvDir := fs.String("csv", "", "also write each experiment's table as CSV into this directory")
	jsonOut := fs.Bool("json", false, "print each experiment as a JSON object instead of text")
	golden := fs.Bool("golden", false, "print each experiment in the golden-master fixture format")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after GC) to this file on exit")
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h/--help is a success, matching the old ExitOnError behaviour
		}
		return 2
	}

	var topology *topo.Topology
	if *topoPath != "" {
		data, err := os.ReadFile(*topoPath)
		if err != nil {
			fmt.Fprintf(stderr, "topology: %v\n", err)
			return 1
		}
		topology, err = topo.Parse(data)
		if err != nil {
			fmt.Fprintf(stderr, "topology: %s: %v\n", *topoPath, err)
			return 1
		}
	}
	if *validate {
		if topology == nil {
			fmt.Fprintf(stderr, "-validate requires -topology\n")
			return 2
		}
		fmt.Fprintf(stdout, "%s: valid (%d sockets, %d switches, %d links)\ncanonical: %s\n",
			*topoPath, len(topology.Sockets), topology.Switches, len(topology.Links), topology.Canonical())
		return 0
	}
	if *dumpPreset != "" {
		return dumpTopology(*dumpPreset, *divisor, topology, stdout, stderr)
	}

	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	if *jsonOut && *golden {
		fmt.Fprintf(stderr, "-json and -golden are mutually exclusive\n")
		return 2
	}
	if *traceOut && *obsDir == "" {
		fmt.Fprintf(stderr, "-trace requires -obs-dir\n")
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}
	opts := exp.Options{Divisor: *divisor, IterScale: *iterScale, Parallelism: *parallel, Topology: topology}
	if *quick {
		opts.IterScale = 0.25
	}
	if *remote != "" {
		opts.Backend = newFabricClient(*remote)
	}
	if *follow {
		// Per-run completions stream to stderr; stdout (tables, JSON,
		// golden output) stays byte-identical with or without the flag.
		opts.OnResult = exp.RunLog(stderr)
	}
	var obsMu sync.Mutex
	var obsErr error
	if *obsDir != "" {
		if err := os.MkdirAll(*obsDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "obs-dir: %v\n", err)
			return 1
		}
		opts.Obs = arch.ObsSpec{Series: true, Trace: *traceOut}
		dir := *obsDir
		opts.ObsSink = func(key string, spec workload.Spec, col *obs.Collector) {
			if err := writeObs(dir, key, spec.Name, col); err != nil {
				obsMu.Lock()
				if obsErr == nil {
					obsErr = err
				}
				obsMu.Unlock()
			}
		}
	}
	runner := exp.NewRunner(opts)

	names := fs.Args()
	if len(names) == 1 && names[0] == "all" {
		names = nil
		for _, e := range exp.Experiments() {
			names = append(names, e.Name)
		}
	}
	for _, name := range names {
		e, ok := exp.ExperimentByName(name)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q\n", name)
			fs.Usage()
			return 2
		}
		start := time.Now()
		res, err := runExperiment(e, runner)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		if *golden {
			stdout.Write(exp.RenderGolden(res))
		} else if *jsonOut {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(e.Named(res)); err != nil {
				fmt.Fprintf(stderr, "json: %v\n", err)
				return 1
			}
		} else {
			fmt.Fprintln(stdout, res.Table.String())
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, e.Name+".csv")
			if err := os.WriteFile(path, []byte(res.Table.CSV()), 0o644); err != nil {
				fmt.Fprintf(stderr, "csv: %v\n", err)
				return 1
			}
		}
		if !*jsonOut && !*golden {
			fmt.Fprintf(stdout, "summary:")
			for _, k := range sortedKeys(res.Summary) {
				fmt.Fprintf(stdout, " %s=%.3f", k, res.Summary[k])
			}
			fmt.Fprintf(stdout, "\nelapsed: %s\n\n", time.Since(start).Round(time.Millisecond))
		}
	}
	if obsErr != nil {
		fmt.Fprintf(stderr, "obs: %v\n", obsErr)
		return 1
	}
	if *obsDir != "" {
		fmt.Fprintf(stderr, "observability output in %s\n", *obsDir)
	}
	return 0
}

// writeObs flushes one observed run's collector into its own
// subdirectory, named by workload plus a short hash of the run key so
// the same workload under different configurations lands in different
// directories and reruns land in the same ones.
func writeObs(dir, key, specName string, col *obs.Collector) error {
	sum := sha256.Sum256([]byte(key))
	sub := filepath.Join(dir, fmt.Sprintf("%s-%x", specName, sum[:4]))
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return err
	}
	write := func(name string, flush func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(sub, name))
		if err != nil {
			return err
		}
		if err := flush(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write("series.csv", col.WriteSeriesCSV); err != nil {
		return err
	}
	if err := write("series.json", col.WriteSeriesJSON); err != nil {
		return err
	}
	if col.Trace() != nil {
		if err := write("trace.json", col.WriteTrace); err != nil {
			return err
		}
	}
	return nil
}

// dumpTopology prints the effective topology of one configuration
// preset — the explicit one when -topology matches its socket count,
// the synthesized symmetric crossbar otherwise — as indented JSON plus
// its canonical encoding, for debugging what a run will actually route
// over.
func dumpTopology(preset string, divisor int, topology *topo.Topology, stdout, stderr io.Writer) int {
	cfg, err := exp.NewRunner(exp.Options{Divisor: divisor, Topology: topology}).Preset(preset, 4)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if cfg.Sockets < 2 {
		fmt.Fprintf(stdout, "%s: single-socket configuration, no inter-socket fabric\n", preset)
		return 0
	}
	top := cfg.Topology
	if top == nil {
		top = topo.Crossbar(cfg.Sockets, cfg.LanesPerDir, cfg.LaneBandwidth, cfg.LinkLatency)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(top); err != nil {
		fmt.Fprintf(stderr, "dump-topology: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "canonical: %s\n", top.Canonical())
	return 0
}

// runExperiment converts a panicking run — an invalid configuration
// reaching core.MustSystem, or a failed remote backend — into an error
// and a clean nonzero exit instead of a crash with a stack trace.
func runExperiment(e exp.Experiment, runner *exp.Runner) (res exp.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiment failed: %v", p)
		}
	}()
	return e.Run(runner), nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, "usage: numagpu [flags] <experiment>...\n\nexperiments:\n")
	for _, e := range exp.Experiments() {
		fmt.Fprintf(w, "  %-12s %s\n", e.Name, e.Desc)
	}
	fmt.Fprintf(w, "  %-12s run everything\n\nflags:\n", "all")
	fs.PrintDefaults()
}
