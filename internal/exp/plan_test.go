package exp

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// sources runs reqs through a Session of r and returns how the Session
// saw each unique key resolve.
func sources(r *Runner, reqs []RunRequest) map[string]RunSource {
	var mu sync.Mutex
	got := map[string]RunSource{}
	r.Session(func(key string, _ core.Result, src RunSource) {
		mu.Lock()
		got[key] = src
		mu.Unlock()
	}).RunAll(reqs)
	return got
}

// count reports how many keys resolved from each source.
func count(got map[string]RunSource) map[RunSource]int {
	n := map[RunSource]int{}
	for _, src := range got {
		n[src]++
	}
	return n
}

// TestPlanOverlappingSweeps is the delta-planning contract: sweep B
// overlapping sweep A by N keys resolves those N as cached, executes
// exactly |B|-N new simulations, and counts the N into Stats.DeltaHits.
func TestPlanOverlappingSweeps(t *testing.T) {
	opts := tinyOptions()
	opts.Parallelism = 2
	r := NewRunner(opts)
	specs := r.opts.Workloads // 4 workloads

	var sweepA, sweepB []RunRequest
	for _, s := range specs {
		sweepA = append(sweepA, RunRequest{r.Base(2), s})
	}
	// B overlaps A on the first two workloads and adds 4 new keys.
	for _, s := range specs[:2] {
		sweepB = append(sweepB, RunRequest{r.Base(2), s})
	}
	for _, s := range specs {
		sweepB = append(sweepB, RunRequest{r.Base(4), s})
	}
	overlap := 2

	if n := count(sources(r, sweepA)); n[SourceSimulated] != len(sweepA) || len(n) != 1 {
		t.Fatalf("cold sweep A resolved %v, want all %d simulated", n, len(sweepA))
	}
	if st := r.Stats(); st.Simulations != uint64(len(sweepA)) || st.DeltaHits != 0 {
		t.Fatalf("sweep A stats = %+v, want %d simulations and no delta hit", st, len(sweepA))
	}

	n := count(sources(r, sweepB))
	if n[SourceCached] != overlap {
		t.Fatalf("sweep B resolved %d keys cached, want the overlap %d", n[SourceCached], overlap)
	}
	if want := len(sweepB) - overlap; n[SourceSimulated] != want {
		t.Fatalf("sweep B simulated %d keys, want the delta %d", n[SourceSimulated], want)
	}

	st := r.Stats()
	if want := uint64(len(sweepA) + len(sweepB) - overlap); st.Simulations != want {
		t.Fatalf("total simulations %d, want |A|+|B|-overlap = %d", st.Simulations, want)
	}
	if st.DeltaHits != uint64(overlap) {
		t.Fatalf("DeltaHits = %d, want %d", st.DeltaHits, overlap)
	}
	if st.CoalescedKeys != 0 {
		t.Fatalf("CoalescedKeys = %d, want 0 (nothing was in flight)", st.CoalescedKeys)
	}
}

// TestPlanPrefillsFromCache simulates the cross-restart delta: a fresh
// Runner whose second-level cache already holds a sweep's results must
// resolve every key cached, fire OnResult for each once with
// SourceCached, and execute zero simulations.
func TestPlanPrefillsFromCache(t *testing.T) {
	cache := newMapCache()
	warmOpts := tinyOptions()
	warmOpts.Cache = cache
	warm := NewRunner(warmOpts)
	var reqs []RunRequest
	for _, s := range warm.opts.Workloads[:2] {
		reqs = append(reqs, RunRequest{warm.Base(2), s})
	}
	warm.RunAll(reqs)

	var mu sync.Mutex
	got := map[string]RunSource{}
	fired := 0
	o := tinyOptions()
	o.Cache = cache
	o.OnResult = func(key string, res core.Result, src RunSource) {
		mu.Lock()
		got[key] = src
		fired++
		mu.Unlock()
	}
	r := NewRunner(o)
	res := r.RunAll(append(reqs, reqs...))
	if len(got) != len(reqs) || fired != len(reqs) {
		t.Fatalf("OnResult fired %d times for %d keys, want once for each of %d", fired, len(got), len(reqs))
	}
	for key, src := range got {
		if src != SourceCached {
			t.Fatalf("warm run of %s reported source %q, want %q", key, src, SourceCached)
		}
	}
	st := r.Stats()
	if st.Simulations != 0 || st.CacheHits != uint64(len(reqs)) || st.DeltaHits != uint64(len(reqs)) {
		t.Fatalf("warm sweep stats = %+v, want 0 sims, %d cache hits, %d delta hits", st, len(reqs), len(reqs))
	}
	for i, q := range append(reqs, reqs...) {
		if res[i].Name != q.Spec.Name {
			t.Fatalf("result %d named %q, want %q", i, res[i].Name, q.Spec.Name)
		}
	}
}

// gatedBackend holds every Execute until release is closed, after
// announcing the call on started, and then returns a fabricated result.
type gatedBackend struct {
	started chan string
	release chan struct{}
}

func (b gatedBackend) Execute(key string, _ arch.Config, spec workload.Spec, _ workload.Options) (core.Result, error) {
	b.started <- key
	<-b.release
	return core.Result{Name: spec.Name, Cycles: 7}, nil
}

// awaitJoined waits until n goroutines wait in runKeyed on a memo entry
// another goroutine is executing: they have read the entry unfinished
// and block in its Once, which is what makes them coalesced.
func awaitJoined(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		joined := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "(*Runner).runKeyed(") && strings.Contains(g, "sync.(*Once).doSlow") &&
				!strings.Contains(g, "gatedBackend") {
				joined++
			}
		}
		if joined >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers joined the in-flight run", joined, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPlanCoalescesInFlightKeys covers the coalesced path: a second
// sweep that reaches a key while another caller is executing it joins
// that execution, reports SourceCoalesced and counts one CoalescedKeys,
// and nothing runs twice.
func TestPlanCoalescesInFlightKeys(t *testing.T) {
	b := gatedBackend{started: make(chan string, 1), release: make(chan struct{})}
	opts := tinyOptions()
	opts.Backend = b
	r := NewRunner(opts)
	req := RunRequest{r.Base(2), r.opts.Workloads[0]}

	first := make(chan map[string]RunSource)
	go func() { first <- sources(r, []RunRequest{req}) }()
	<-b.started
	second := make(chan map[string]RunSource)
	go func() { second <- sources(r, []RunRequest{req, req}) }()
	awaitJoined(t, 1)
	close(b.release)

	key := r.RunKey(req.Cfg, req.Spec)
	if src := (<-first)[key]; src != SourceRemote {
		t.Fatalf("executing sweep saw %q, want %q", src, SourceRemote)
	}
	if got := <-second; len(got) != 1 || got[key] != SourceCoalesced {
		t.Fatalf("joining sweep saw %v, want %s %s", got, key, SourceCoalesced)
	}
	if st := r.Stats(); st.RemoteRuns != 1 || st.CoalescedKeys != 1 || st.DeltaHits != 0 {
		t.Fatalf("stats = %+v, want 1 remote run, 1 coalesced key, 0 delta hits", st)
	}
}

// TestScaledSharesMemoAndCounters: Runners Scaled derives share one
// memo and one counter set across scales, so the same key asked twice
// simulates once while two scales simulate twice, and every derived
// Runner reports the same Stats.
func TestScaledSharesMemoAndCounters(t *testing.T) {
	r := NewRunner(tinyOptions())
	spec := r.opts.Workloads[0]
	half := r.opts.IterScale / 2
	a, b := r.Scaled(half, r.opts.MaxCTAs), r.Scaled(half, r.opts.MaxCTAs)
	if a.Options().IterScale != half || a.Options().Divisor != r.opts.Divisor {
		t.Fatalf("Scaled options = %+v", a.Options())
	}
	ra := a.Run(a.Base(2), spec)
	rb := b.Run(b.Base(2), spec)
	if ra.Cycles != rb.Cycles || ra.Instructions != rb.Instructions {
		t.Fatal("one key read two results")
	}
	if st := r.Stats(); st.Simulations != 1 {
		t.Fatalf("the same key at one scale simulated %d times, want 1", st.Simulations)
	}
	r.Run(r.Base(2), spec)
	if st := r.Stats(); st.Simulations != 2 || a.Stats() != st || b.Stats() != st {
		t.Fatalf("two scales: stats %+v / %+v / %+v, want 2 simulations shared", st, a.Stats(), b.Stats())
	}
	// Arguments normalize as Options do: 0 is scale 1, a negative cap
	// is uncapped.
	cfg := r.Base(2)
	if r.Scaled(0, -3).RunKey(cfg, spec) != r.Scaled(1, 0).RunKey(cfg, spec) {
		t.Fatal("Scaled(0, -3) and Scaled(1, 0) key differently")
	}
}

// TestOnResultFiresOncePerKey hammers duplicate requests through RunAll
// and direct Run calls: the runner-level callback must fire exactly once
// per unique key, with the executing run reporting SourceSimulated.
func TestOnResultFiresOncePerKey(t *testing.T) {
	var mu sync.Mutex
	fired := map[string]int{}
	src := map[string]RunSource{}
	opts := tinyOptions()
	opts.Parallelism = 4
	opts.OnResult = func(key string, res core.Result, s RunSource) {
		mu.Lock()
		fired[key]++
		src[key] = s
		mu.Unlock()
	}
	r := NewRunner(opts)
	spec := r.opts.Workloads[0]
	reqs := []RunRequest{
		{r.Base(2), spec}, {r.Base(2), spec}, {r.Base(2), spec},
		{r.Base(4), spec}, {r.Base(4), spec},
	}
	r.RunAll(reqs)
	r.Run(r.Base(2), spec) // memo repeat after completion
	if len(fired) != 2 {
		t.Fatalf("OnResult saw %d unique keys, want 2", len(fired))
	}
	for key, n := range fired {
		if n != 1 {
			t.Fatalf("OnResult fired %d times for %s, want exactly once", n, key)
		}
		if src[key] != SourceSimulated {
			t.Fatalf("executing run of %s reported source %q, want %q", key, src[key], SourceSimulated)
		}
	}
}

// TestSessionAttribution runs two sessions over one shared Runner with
// overlapping sweeps: each session's callback must report exactly its
// own keys (dedup included), and the second session must see the
// overlap as cached rather than re-simulated.
func TestSessionAttribution(t *testing.T) {
	opts := tinyOptions()
	opts.Parallelism = 2
	r := NewRunner(opts)
	specs := r.opts.Workloads

	collect := func() (map[string]RunSource, func(string, core.Result, RunSource)) {
		seen := map[string]RunSource{}
		var mu sync.Mutex
		return seen, func(key string, res core.Result, s RunSource) {
			mu.Lock()
			seen[key] = s
			mu.Unlock()
		}
	}
	seenA, onA := collect()
	seenB, onB := collect()
	sa := r.Session(onA)
	sb := r.Session(onB)

	var sweepA, sweepB []RunRequest
	for _, s := range specs[:3] {
		sweepA = append(sweepA, RunRequest{r.Base(2), s}, RunRequest{r.Base(2), s}) // dup on purpose
	}
	for _, s := range specs[1:] {
		sweepB = append(sweepB, RunRequest{r.Base(2), s})
	}
	sa.RunAll(sweepA)
	sb.RunAll(sweepB)

	if len(seenA) != 3 {
		t.Fatalf("session A reported %d keys, want 3 unique", len(seenA))
	}
	if len(seenB) != 3 {
		t.Fatalf("session B reported %d keys, want 3", len(seenB))
	}
	for key, src := range seenA {
		if src != SourceSimulated {
			t.Fatalf("session A key %s source %q, want simulated", key, src)
		}
	}
	// B's overlap with A (specs[1], specs[2]) must be cached; its new
	// key (specs[3]) simulated. No key of A-only (specs[0]) may appear.
	onlyA := r.RunKey(r.Base(2), specs[0])
	if _, leaked := seenB[onlyA]; leaked {
		t.Fatalf("session B's callback saw session A's key %s", onlyA)
	}
	cached, simulated := 0, 0
	for _, src := range seenB {
		switch src {
		case SourceCached:
			cached++
		case SourceSimulated:
			simulated++
		default:
			t.Fatalf("unexpected source %q in session B", src)
		}
	}
	if cached != 2 || simulated != 1 {
		t.Fatalf("session B saw %d cached / %d simulated, want 2/1", cached, simulated)
	}
	if st := r.Stats(); st.Simulations != 4 {
		t.Fatalf("shared runner simulated %d keys, want 4 unique", st.Simulations)
	}
}

// TestPlanObservedSweepSkipsCache pins the observability constraint: an
// observed run must actually simulate, so RunAll with Obs enabled
// simulates every key without consulting the cache and counts no delta
// hit.
func TestPlanObservedSweepSkipsCache(t *testing.T) {
	cache := newMapCache()
	warm := NewRunner(cachedOptions(cache))
	req := RunRequest{warm.Base(2), warm.opts.Workloads[0]}
	warm.Run(req.Cfg, req.Spec)

	getsBefore := cache.gets
	o := cachedOptions(cache)
	o.Obs = arch.ObsSpec{Series: true, SamplePeriod: 500}
	r := NewRunner(o)
	if got := sources(r, []RunRequest{req}); got[r.RunKey(req.Cfg, req.Spec)] != SourceSimulated {
		t.Fatalf("observed sweep resolved %v, want simulated", got)
	}
	if st := r.Stats(); st.Simulations != 1 || st.DeltaHits != 0 || st.CacheHits != 0 {
		t.Fatalf("observed sweep stats = %+v, want 1 simulation and no cache or delta hit", st)
	}
	if gets := cache.gets - getsBefore; gets != 0 {
		t.Fatalf("observed sweep consulted the cache %d times, want 0", gets)
	}
}
