package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/workload"
)

func corpusKeys(sweeps []sweep) [][]string {
	var out [][]string
	for _, sw := range sweeps {
		out = append(out, sw.keys)
	}
	return out
}

func TestCorpusDeterministic(t *testing.T) {
	r := exp.NewRunner(serveOptions(false))
	w1, f1, err := warmCorpus(r, 7)
	if err != nil {
		t.Fatal(err)
	}
	w2, f2, _ := warmCorpus(r, 7)
	w3, f3, _ := warmCorpus(r, 8)
	if !reflect.DeepEqual(corpusKeys(w1), corpusKeys(w2)) || !reflect.DeepEqual(f1, f2) {
		t.Fatal("warm corpus differs between two builds from one seed")
	}
	if reflect.DeepEqual(corpusKeys(w1), corpusKeys(w3)) {
		t.Fatal("warm corpus is the same for seeds 7 and 8")
	}
	if !reflect.DeepEqual(f1, f3) {
		t.Fatal("the filled set depends on the seed; set-up cost would too")
	}
	c1, err := coldCorpus(r, 7)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := coldCorpus(r, 7)
	c3, _ := coldCorpus(r, 8)
	if !reflect.DeepEqual(corpusKeys(c1), corpusKeys(c2)) {
		t.Fatal("cold corpus differs between two builds from one seed")
	}
	if reflect.DeepEqual(corpusKeys(c1), corpusKeys(c3)) {
		t.Fatal("cold corpus is the same for seeds 7 and 8")
	}
}

// Every key of a sweep must be the run key of the sweep's
// configuration and the named workload: the serve checks rely on it.
func checkKeys(t *testing.T, r *exp.Runner, sw sweep) {
	t.Helper()
	if len(sw.keys) != len(sw.req.Workloads) || len(sw.keys) == 0 {
		t.Fatalf("sweep has %d keys for %d workloads", len(sw.keys), len(sw.req.Workloads))
	}
	for i, name := range sw.req.Workloads {
		spec, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		if got := r.RunKey(sw.cfg, spec); got != sw.keys[i] {
			t.Fatalf("key %d of a sweep is %s, want %s", i, sw.keys[i], got)
		}
	}
}

func TestColdKeysAreNew(t *testing.T) {
	r := exp.NewRunner(serveOptions(true))
	for _, seed := range []int64{1, 2, 3} {
		sweeps, err := coldCorpus(r, seed)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, sw := range sweeps {
			checkKeys(t, r, sw)
			for _, k := range sw.keys {
				if seen[k] {
					t.Fatalf("seed %d: key %s requested twice", seed, k)
				}
				seen[k] = true
			}
		}
		// Two CPUs serve about 20 cold keys a second; the corpus must
		// not run dry within the longest run the benchmark allows.
		if len(seen) < 6000 {
			t.Fatalf("seed %d: only %d cold keys", seed, len(seen))
		}
	}
}

func TestWarmKeysAreFilled(t *testing.T) {
	r := exp.NewRunner(serveOptions(false))
	for _, seed := range []int64{1, 2, 3} {
		sweeps, fill, err := warmCorpus(r, seed)
		if err != nil {
			t.Fatal(err)
		}
		filled := map[string]bool{}
		for _, sw := range fill {
			checkKeys(t, r, sw)
			for _, k := range sw.keys {
				filled[k] = true
			}
		}
		covered := map[string]bool{}
		for _, sw := range sweeps {
			checkKeys(t, r, sw)
			for _, k := range sw.keys {
				if !filled[k] {
					t.Fatalf("seed %d: warm key %s is not in the filled set", seed, k)
				}
				covered[k] = true
			}
		}
		if len(covered) != len(filled) || len(sweeps) != warmCorpusLen {
			t.Fatalf("seed %d: corpus covers %d of %d filled keys in %d sweeps", seed, len(covered), len(filled), len(sweeps))
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35}
	for _, c := range []struct{ p, want float64 }{
		{0.05, 15}, {0.4, 20}, {0.5, 35}, {0.9, 50}, {1, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestAgreement(t *testing.T) {
	for _, c := range []struct {
		sim, paper float64
		atLeast    bool
		want       float64
	}{
		{1.5, 1.5, false, 1},
		{0.75, 1.5, false, 0.5},
		{3, 1.5, false, 0.5},
		{0.99, 0.98, true, 1},
		{0.49, 0.98, true, 0.5},
		{0, 1.5, false, 0},
	} {
		if got := agreement(c.sim, c.paper, c.atLeast); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("agreement(%v, %v, %v) = %v, want %v", c.sim, c.paper, c.atLeast, got, c.want)
		}
	}
	// Figure 11 exact except numa_2 at half the paper's 1.5×: one
	// claim at 0.5 and five at 1 give 0.5^(1/6).
	per, total := score(map[string]map[string]float64{"fig11": {
		"numa_2_geomean": 0.75, "numa_4_geomean": 2.3, "numa_8_geomean": 3.2,
		"efficiency_2_pct": 89, "efficiency_4_pct": 84, "efficiency_8_pct": 76,
	}})
	if len(per) != 6 || per["fig11.numa_2"] != 0.5 || per["fig11.eff_8"] != 1 {
		t.Fatalf("per-claim agreement %v", per)
	}
	if want := math.Pow(0.5, 1.0/6); math.Abs(total-want) > 1e-12 {
		t.Fatalf("paper_agreement = %v, want %v", total, want)
	}
	if _, total := score(map[string]map[string]float64{"fig9": {}}); total != 0 {
		t.Fatalf("a missing summary key scored %v, want 0", total)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(s int) time.Time { return time.Unix(0, 0).Add(time.Duration(s) * time.Second) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	parent := iv(0, 10)
	children := []interval{iv(2, 5), iv(1, 3), iv(7, 8), iv(9, 12)}
	// Covered: [1,5] + [7,8] + [9,10] = 6s of the parent's 10s.
	if got := covered(parent, children); got != 6*time.Second {
		t.Fatalf("covered = %v, want 6s", got)
	}
	if got := selfTime(parent, children); got != 4*time.Second {
		t.Fatalf("selfTime = %v, want 4s", got)
	}
	if got := selfTime(parent, nil); got != 10*time.Second {
		t.Fatalf("selfTime without children = %v, want 10s", got)
	}
	if got := maxConcurrency(children); got != 2 {
		t.Fatalf("maxConcurrency = %d, want 2", got)
	}
	if got := maxConcurrency([]interval{iv(0, 1), iv(1, 2)}); got != 1 {
		t.Fatalf("back-to-back spans counted as concurrent: %d", got)
	}
}

func TestDerivedCounts(t *testing.T) {
	bfs, ok := workload.ByName("Rodinia-BFS")
	if !ok {
		t.Fatal("Rodinia-BFS missing")
	}
	// 2 launches × 1024 CTAs × 2 warps × max(⌊9×0.25⌋, 4) iterations,
	// one load and one store step each.
	i, l, s := derivedCounts(bfs, workload.Options{IterScale: 0.25})
	if i != 32768 || l != 16384 || s != 16384 {
		t.Fatalf("Rodinia-BFS at 0.25 = %d instr, %d loads, %d stores; want 32768, 16384, 16384", i, l, s)
	}
	// A compute-only phase issues one instruction per iteration, and
	// MaxCTAs caps the grid: 8 CTAs × 3 warps × max(⌊10×0.1⌋, 2).
	spec := workload.Spec{Name: "compute", CTAs: 100, Warps: 3, Iters: 10, Phases: []workload.Phase{{Compute: 5}}}
	i, l, s = derivedCounts(spec, workload.Options{IterScale: 0.1, MaxCTAs: 8})
	if i != 48 || l != 0 || s != 0 {
		t.Fatalf("compute-only spec = %d instr, %d loads, %d stores; want 48, 0, 0", i, l, s)
	}
}

// The metrics the command prints must be exactly the ones
// BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, doc.EndToEnd}, {"per_layer", perLayer(), doc.PerLayer}} {
		var got []metricDef
		for _, m := range c.json {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("%s in BENCHMARK.json:\n%v\nprinted by the command:\n%v", c.what, got, c.defs)
		}
	}
}
