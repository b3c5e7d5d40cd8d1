package exp

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
)

// TestSweepReusesOneSystem: a one-configuration sweep of N runs at
// Parallelism 1 builds one System and resets it for every later run,
// and its results equal those of fresh Systems. At Parallelism 4 each
// worker reuses its own System, and the results are the same.
func TestSweepReusesOneSystem(t *testing.T) {
	opts := tinyOptions()
	opts.Parallelism = 1
	r := NewRunner(opts)
	var reqs []RunRequest
	for _, spec := range r.opts.Workloads {
		reqs = append(reqs, RunRequest{r.NUMAAware(4), spec})
	}
	res := r.RunAll(reqs)
	if got := r.Stats().Simulations; got != uint64(len(reqs)) {
		t.Fatalf("%d simulations for %d runs", got, len(reqs))
	}
	if got := r.systems.Load(); got != 1 {
		t.Fatalf("a one-configuration sweep of %d runs built %d Systems, want 1", len(reqs), got)
	}
	for i, q := range reqs {
		want := core.MustSystem(q.Cfg).Run(q.Spec.Program(r.opts.workloadOptions()))
		want.Name = q.Spec.Name
		if !reflect.DeepEqual(res[i], want) {
			t.Fatalf("run %d on a reset System diverged from a fresh one:\nfresh: %+v\nreset: %+v", i, want, res[i])
		}
	}

	opts.Parallelism = 4
	par := NewRunner(opts)
	reqs = append(reqs, reqs...) // the repeats resolve from the memo
	for _, spec := range r.opts.Workloads {
		reqs = append(reqs, RunRequest{r.Base(2), spec})
	}
	got := par.RunAll(reqs)
	if !reflect.DeepEqual(got[:len(res)], res) {
		t.Fatal("a parallel sweep reusing Systems diverged from the sequential one")
	}
	if n := par.systems.Load(); n > 8 {
		t.Fatalf("four workers over two configurations built %d Systems", n)
	}
}

// TestSweepGroupsByConfig: a sweep that alternates configurations runs
// grouped by configuration, in order of first appearance, so a
// sequential pool builds one System per configuration; results stay in
// request order and the Session reports the same grouping.
func TestSweepGroupsByConfig(t *testing.T) {
	opts := tinyOptions()
	opts.Parallelism = 1
	var mu sync.Mutex
	var completed []string
	opts.OnResult = func(key string, _ core.Result, _ RunSource) {
		mu.Lock()
		completed = append(completed, key)
		mu.Unlock()
	}
	r := NewRunner(opts)
	cfgs := []arch.Config{r.Base(2), r.Traditional(2), r.Monolithic(2)}
	var reqs []RunRequest
	for _, spec := range r.opts.Workloads {
		for _, cfg := range cfgs {
			reqs = append(reqs, RunRequest{cfg, spec})
		}
	}
	var seen []string
	res := r.Session(func(key string, _ core.Result, _ RunSource) { seen = append(seen, key) }).RunAll(reqs)
	for i, q := range reqs {
		if res[i].Name != q.Spec.Name {
			t.Fatalf("result %d is %q, want %q: request order lost", i, res[i].Name, q.Spec.Name)
		}
	}
	var want []string
	for _, cfg := range cfgs {
		for _, spec := range r.opts.Workloads {
			want = append(want, r.RunKey(cfg, spec))
		}
	}
	if !slices.Equal(completed, want) || !slices.Equal(seen, want) {
		t.Fatalf("runs completed out of configuration order:\ngot  %q\nwant %q", completed, want)
	}
	if got := r.systems.Load(); got != uint64(len(cfgs)) {
		t.Fatalf("%d configurations built %d Systems", len(cfgs), got)
	}
}

// TestByConfig pins the grouping order, and that a sweep of one
// configuration keeps its order without allocating.
func TestByConfig(t *testing.T) {
	r := NewRunner(tinyOptions())
	a, b, c := r.Base(2), r.Base(4), r.NUMAAware(4)
	cfgs := []arch.Config{a, b, a, c, b, a}
	got := byConfig(len(cfgs), func(i int) arch.Config { return cfgs[i] })
	if want := []int{0, 2, 5, 1, 4, 3}; !slices.Equal(got, want) {
		t.Fatalf("byConfig = %v, want %v", got, want)
	}
	same := []arch.Config{a, a, a}
	if allocs := testing.AllocsPerRun(100, func() {
		if byConfig(len(same), func(i int) arch.Config { return same[i] }) != nil {
			t.Fatal("a one-configuration sweep was reordered")
		}
	}); allocs != 0 {
		t.Fatalf("grouping a one-configuration sweep allocated %.0f times", allocs)
	}
}

// TestSysSlot: a worker's slot hands its System out once, and only
// for the configuration it was built for. Taking empties the slot, so
// a run that panics leaves nothing behind to reset.
func TestSysSlot(t *testing.T) {
	cfg := NewRunner(tinyOptions()).Base(2)
	var slot sysSlot
	if slot.take(cfg) != nil {
		t.Fatal("an empty slot handed out a System")
	}
	sys := core.MustSystem(cfg)
	sys.Run(core.Program{})
	slot.keep(sys)
	if got := slot.take(cfg); got != sys {
		t.Fatal("the slot did not reuse the System of its configuration")
	}
	if slot.take(cfg) != nil {
		t.Fatal("a taken System stayed in the slot")
	}
	other := cfg
	other.Sockets = 4
	sys.Run(core.Program{})
	slot.keep(sys)
	if slot.take(other) != nil {
		t.Fatal("the slot reused a System of another configuration")
	}
	var nilSlot *sysSlot
	nilSlot.keep(sys)
	if nilSlot.take(cfg) != nil {
		t.Fatal("a nil slot handed out a System")
	}
}
