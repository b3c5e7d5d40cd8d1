package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestObsOffByteIdentical reruns every registered experiment with an
// ObsSpec that is populated (non-default period and capacities) but
// disabled — Series and Trace both false — and diffs the output
// byte-for-byte against the golden masters. This is the off-by-default
// half of the observability contract: with the probes compiled in and a
// spec present, nothing may change until sampling is switched on.
func TestObsOffByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("obs-off golden masters simulate the full -quick suite; skipped in -short mode")
	}
	o := QuickOptions()
	o.Obs = arch.ObsSpec{SamplePeriod: 250, MaxSamples: 64, MaxTraceEvents: 64}
	o.ObsSink = func(string, workload.Spec, *obs.Collector) {
		t.Error("ObsSink fired with sampling disabled")
	}
	runner := NewRunner(o)
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			got := RenderGolden(e.Run(runner))
			want, err := os.ReadFile(goldenPath(e.Name))
			if err != nil {
				t.Fatalf("missing golden fixture (regenerate with TestGoldenMasters -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s output diverged with a disabled ObsSpec present (%d bytes got, %d want).\n"+
					"Observation must be off by default; do NOT regenerate fixtures for this.\n"+
					"--- got ---\n%s\n--- want ---\n%s",
					e.Name, len(got), len(want), firstDiffWindow(got, want), firstDiffWindow(want, got))
			}
		})
	}
}

// TestObsOnByteIdentical is the enforcement test behind the Obs
// cache-key exemption: every registered experiment reruns with series
// sampling AND tracing enabled and must still match the golden masters
// byte-for-byte — observation tickers fire throughout the run, yet the
// simulation's own event stream is untouched. A second pass renders a
// subset with its runs leased as shards to observing worker Runners,
// covering observation on the workers of a sharded sweep.
//
// Never run with -update: the fixtures are owned by TestGoldenMasters.
func TestObsOnByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("obs-on golden masters simulate the full -quick suite; skipped in -short mode")
	}
	var sampled, traced atomic.Int64
	o := QuickOptions()
	o.Obs = arch.ObsSpec{Series: true, Trace: true}
	o.ObsSink = func(key string, spec workload.Spec, col *obs.Collector) {
		for _, s := range col.Series() {
			sampled.Add(int64(s.Len()))
		}
		if tr := col.Trace(); tr != nil {
			traced.Add(int64(tr.Len()))
		}
	}
	diff := func(t *testing.T, runner *Runner, e Experiment, mode string) {
		got := RenderGolden(e.Run(runner))
		want, err := os.ReadFile(goldenPath(e.Name))
		if err != nil {
			t.Fatalf("missing golden fixture (regenerate with TestGoldenMasters -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s %s output diverged with sampling on (%d bytes got, %d want).\n"+
				"Observation must be byte-inert; do NOT regenerate fixtures for this.\n"+
				"--- got ---\n%s\n--- want ---\n%s",
				e.Name, mode, len(got), len(want), firstDiffWindow(got, want), firstDiffWindow(want, got))
		}
	}

	runner := NewRunner(o)
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) { diff(t, runner, e, "serial") })
	}
	if sampled.Load() == 0 || traced.Load() == 0 {
		t.Fatalf("sampling on but collectors stayed empty (%d samples, %d trace events): the test proved nothing",
			sampled.Load(), traced.Load())
	}

	// Sharded pass: the rendering runner observes nothing and leases
	// every run to workers that simulate with sampling and tracing on.
	// fig3 exercises socket scaling; fig5 simulates its own observed
	// run, outside the Runner, for its per-link series.
	sampled.Store(0)
	traced.Store(0)
	b := newShardBackend(2, o)
	so := QuickOptions()
	so.Backend = b
	sharded := NewRunner(so)
	for _, name := range []string{"fig3", "fig5"} {
		e, ok := ExperimentByName(name)
		if !ok {
			t.Fatalf("unknown experiment %q", name)
		}
		t.Run(name+"-sharded", func(t *testing.T) { diff(t, sharded, e, "sharded") })
	}
	b.checkSpread(t, sharded)
	if sampled.Load() == 0 || traced.Load() == 0 {
		t.Fatalf("sharded workers observed nothing (%d samples, %d trace events): the sharded pass proved nothing",
			sampled.Load(), traced.Load())
	}
}

// TestObsSeriesGolden pins the series CSV flush format — the surface
// scripts and the CI obs job consume — against a committed fixture for
// one small fig3-style run (the base preset on two sockets). Any change
// to series naming, sample cadence, retention, or CSV shape shows up
// here as a byte diff. Regenerate intentionally with:
//
//	go test ./internal/exp -run TestObsSeriesGolden -update
func TestObsSeriesGolden(t *testing.T) {
	o := tinyOptions()
	o.Obs = arch.ObsSpec{Series: true, SamplePeriod: 2500, MaxSamples: 32}
	var csv []byte
	o.ObsSink = func(key string, spec workload.Spec, col *obs.Collector) {
		var buf bytes.Buffer
		if err := col.WriteSeriesCSV(&buf); err != nil {
			t.Errorf("WriteSeriesCSV: %v", err)
		}
		csv = buf.Bytes()
	}
	r := NewRunner(o)
	r.Run(r.Base(2), r.opts.Workloads[0])
	if len(csv) == 0 {
		t.Fatal("no series flushed")
	}

	path := filepath.Join("testdata", "golden", "obs-series.csv.golden")
	if *update {
		if err := os.WriteFile(path, csv, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing series fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(csv, want) {
		t.Fatalf("series CSV diverged from fixture (%d bytes got, %d want).\n"+
			"If this change is intentional, regenerate with:\n"+
			"  go test ./internal/exp -run TestObsSeriesGolden -update\n"+
			"--- got ---\n%s\n--- want ---\n%s",
			len(csv), len(want), firstDiffWindow(csv, want), firstDiffWindow(want, csv))
	}
}
