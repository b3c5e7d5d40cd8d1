package exp

import (
	"sync"
	"testing"

	"repro/internal/workload"
)

// experimentFns enumerates every table/figure entry point via the
// shared registry, so the determinism test cannot silently miss an
// experiment added later.
var experimentFns = Experiments()

func tinyOptions() Options {
	var subset []workload.Spec
	for _, name := range []string{"HPC-RSBench", "Rodinia-Hotspot", "Other-Stream-Triad", "Lonestar-SP"} {
		s, ok := workload.ByName(name)
		if !ok {
			panic("missing workload " + name)
		}
		subset = append(subset, s)
	}
	return Options{Divisor: 16, IterScale: 0.1, MaxCTAs: 64, Workloads: subset}
}

// TestParallelDeterminism renders every experiment with Parallelism 8
// and with Parallelism 1 and requires byte-identical tables and equal
// summaries: parallel execution must be unobservable in the output.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	seqOpts := tinyOptions()
	seqOpts.Parallelism = 1
	parOpts := tinyOptions()
	parOpts.Parallelism = 8
	seq := NewRunner(seqOpts)
	par := NewRunner(parOpts)
	for _, e := range experimentFns {
		want := e.Run(seq)
		got := e.Run(par)
		if ws, gs := want.Table.String(), got.Table.String(); ws != gs {
			t.Errorf("%s: parallel table differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s", e.Name, ws, gs)
		}
		if wc, gc := want.Table.CSV(), got.Table.CSV(); wc != gc {
			t.Errorf("%s: parallel CSV differs from sequential", e.Name)
		}
		if len(want.Summary) != len(got.Summary) {
			t.Errorf("%s: summary key sets differ: %v vs %v", e.Name, want.Summary, got.Summary)
			continue
		}
		for k, wv := range want.Summary {
			if gv, ok := got.Summary[k]; !ok || gv != wv {
				t.Errorf("%s: summary[%q] = %v parallel vs %v sequential", e.Name, k, gv, wv)
			}
		}
	}
}

// TestRunAllOrderAndSharing checks that RunAll preserves request order
// and that duplicate requests resolve to the one memoized simulation.
func TestRunAllOrderAndSharing(t *testing.T) {
	opts := tinyOptions()
	opts.Parallelism = 8
	r := NewRunner(opts)
	specs := r.opts.Workloads
	var reqs []RunRequest
	for _, spec := range specs {
		reqs = append(reqs, RunRequest{r.Base(2), spec}, RunRequest{r.Base(2), spec})
	}
	res := r.RunAll(reqs)
	if len(res) != len(reqs) {
		t.Fatalf("RunAll returned %d results for %d requests", len(res), len(reqs))
	}
	for i, spec := range specs {
		if res[2*i].Name != spec.Name || res[2*i+1].Name != spec.Name {
			t.Fatalf("request order not preserved at %d: %q/%q want %q",
				i, res[2*i].Name, res[2*i+1].Name, spec.Name)
		}
		if res[2*i].Cycles != res[2*i+1].Cycles {
			t.Fatalf("duplicate requests for %q disagree", spec.Name)
		}
	}
	if sims := r.Stats().Simulations; sims != uint64(len(specs)) {
		t.Fatalf("%d simulations for %d unique keys (duplicates must share)", sims, len(specs))
	}
}

// TestConcurrentRunSimulatesOnce hammers one memo key from many
// goroutines calling Run directly (not via RunAll) and requires exactly
// one simulation: the singleflight guarantee documented on Runner.
// go test -race covers the memo guard.
func TestConcurrentRunSimulatesOnce(t *testing.T) {
	r := NewRunner(tinyOptions())
	spec := r.opts.Workloads[0]
	const goroutines = 16
	results := make([]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = r.Run(r.Base(2), spec).Cycles
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d saw %d cycles, goroutine 0 saw %d", g, results[g], results[0])
		}
	}
	if sims := r.Stats().Simulations; sims != 1 {
		t.Fatalf("%d simulations for one key under concurrent Run, want 1", sims)
	}
	r.mu.Lock()
	entries := len(r.memo)
	r.mu.Unlock()
	if entries != 1 {
		t.Fatalf("memo entries %d, want 1", entries)
	}
}

// TestRunPanicPropagates pins the failure contract: a simulation that
// panics (here an invalid config rejected by core.MustSystem) re-raises
// the panic for the first caller AND for every later caller of the same
// memoized key, rather than leaving a silent zero Result behind the
// spent sync.Once. RunAll must surface it on the caller's goroutine.
func TestRunPanicPropagates(t *testing.T) {
	opts := tinyOptions()
	opts.Parallelism = 4
	r := NewRunner(opts)
	spec := r.opts.Workloads[0]
	bad := r.Base(1)
	bad.Sockets = 0
	mustPanic := func(step string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic from invalid config", step)
			}
		}()
		f()
	}
	mustPanic("first Run", func() { r.Run(bad, spec) })
	mustPanic("second Run (memoized key)", func() { r.Run(bad, spec) })
	mustPanic("RunAll", func() {
		r.RunAll([]RunRequest{{r.Base(2), spec}, {bad, spec}, {r.Base(2), spec}})
	})
}
