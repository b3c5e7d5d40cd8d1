package exp

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/workload"
)

// mapCache is an in-memory exp.Cache with call accounting.
type mapCache struct {
	mu         sync.Mutex
	m          map[string]core.Result
	gets, puts int
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string]core.Result)} }

func (c *mapCache) Get(key string) (core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	res, ok := c.m[key]
	return res, ok
}

func (c *mapCache) Put(key string, res core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[key] = res
}

func cachedOptions(c Cache) Options {
	o := tinyOptions()
	o.Workloads = o.Workloads[:1]
	o.Cache = c
	return o
}

// TestCacheServesWarmRuns simulates a restart: a second Runner (fresh
// memo) sharing the same Cache must serve the identical result without
// simulating, and the counters must say so.
func TestCacheServesWarmRuns(t *testing.T) {
	cache := newMapCache()
	r1 := NewRunner(cachedOptions(cache))
	spec := r1.opts.Workloads[0]
	cold := r1.Run(r1.Base(2), spec)
	if st := r1.Stats(); st.Simulations != 1 || st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	if len(cache.m) != 1 || cache.puts != 1 {
		t.Fatalf("cache not written: %d entries, %d puts", len(cache.m), cache.puts)
	}

	r2 := NewRunner(cachedOptions(cache))
	warm := r2.Run(r2.Base(2), spec)
	if st := r2.Stats(); st.Simulations != 0 || st.CacheHits != 1 || st.CacheMisses != 0 {
		t.Fatalf("warm stats = %+v", st)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm result differs: %+v vs %+v", warm, cold)
	}
	if warm.Name != spec.Name {
		t.Fatalf("warm result lost its name: %q", warm.Name)
	}
}

// TestMemoShortCircuitsCache checks the layering: repeats within one
// Runner are memo hits and never reach the second-level cache.
func TestMemoShortCircuitsCache(t *testing.T) {
	cache := newMapCache()
	r := NewRunner(cachedOptions(cache))
	spec := r.opts.Workloads[0]
	r.Run(r.Base(2), spec)
	r.Run(r.Base(2), spec)
	r.Run(r.Base(2), spec)
	if cache.gets != 1 {
		t.Fatalf("memo hits leaked to the cache: %d gets, want 1", cache.gets)
	}
	if st := r.Stats(); st.Simulations != 1 {
		t.Fatalf("stats = %+v, want 1 simulation", st)
	}
}

// TestRunKeyEncodesScale pins the cache-safety property: run keys must
// differ whenever the simulation would differ — across configs AND
// across workload scaling options, which the config fields alone do not
// cover.
func TestRunKeyEncodesScale(t *testing.T) {
	base := tinyOptions()
	a := NewRunner(base)
	spec := a.opts.Workloads[0]

	scaled := base
	scaled.IterScale = base.IterScale * 2
	b := NewRunner(scaled)

	capped := base
	capped.MaxCTAs = 17
	c := NewRunner(capped)

	ka := a.RunKey(a.Base(2), spec)
	if kb := b.RunKey(b.Base(2), spec); kb == ka {
		t.Fatalf("IterScale not in run key: %q", ka)
	}
	if kc := c.RunKey(c.Base(2), spec); kc == ka {
		t.Fatalf("MaxCTAs not in run key: %q", ka)
	}
	if ka2 := a.RunKey(a.Base(2), spec); ka2 != ka {
		t.Fatalf("run key unstable: %q vs %q", ka, ka2)
	}
	if kd := a.RunKey(a.NUMAAware(2), spec); kd == ka {
		t.Fatal("config not in run key")
	}
}

// TestRunKeyCoversEveryConfigField perturbs each arch.Config field in
// turn and requires the run key to change: the persistent cache is
// only safe if no result-affecting parameter is outside the key. A new
// Config field that fails here must be added to appendRunKey (with a
// cacheSchema bump and the reference formats below extended) —
// or, if it provably cannot affect results, listed in the execution
// policy exemptions below and covered by an equivalence test.
func TestRunKeyCoversEveryConfigField(t *testing.T) {
	// Execution policy fields change how the simulation runs, not what
	// it computes; keying them would needlessly split shared caches.
	// Obs: observation is read-only by construction; byte-identity with
	// sampling on is enforced by TestObsOnByteIdentical and the exemption
	// itself by TestRunKeyIgnoresObs.
	policy := map[string]bool{"Obs": true}
	r := NewRunner(tinyOptions())
	spec := r.opts.Workloads[0]
	base := arch.PaperConfig()
	k0 := r.RunKey(base, spec)
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		if policy[rt.Field(i).Name] {
			continue
		}
		c := base
		f := reflect.ValueOf(&c).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Ptr:
			if rt.Field(i).Name != "Topology" {
				t.Fatalf("unhandled pointer Config field %s: extend this test", rt.Field(i).Name)
			}
			f.Set(reflect.ValueOf(topo.Crossbar(base.Sockets, base.LanesPerDir, base.LaneBandwidth, base.LinkLatency)))
		default:
			t.Fatalf("unhandled Config field kind %s (%s): extend this test", f.Kind(), rt.Field(i).Name)
		}
		if r.RunKey(c, spec) == k0 {
			t.Errorf("Config.%s is not encoded in RunKey; persistent cache would serve stale results", rt.Field(i).Name)
		}
	}
}

// TestDifferentScaleDoesNotShareCache runs the same (config, workload)
// pair at two iteration scales through one shared cache and requires
// two simulations: scale must partition the cache namespace.
func TestDifferentScaleDoesNotShareCache(t *testing.T) {
	cache := newMapCache()
	o1 := cachedOptions(cache)
	r1 := NewRunner(o1)
	spec := r1.opts.Workloads[0]
	r1.Run(r1.Base(2), spec)

	o2 := cachedOptions(cache)
	o2.IterScale = o1.IterScale * 2
	r2 := NewRunner(o2)
	r2.Run(r2.Base(2), spec)
	if st := r2.Stats(); st.CacheHits != 0 || st.Simulations != 1 {
		t.Fatalf("different IterScale must miss the cache: %+v", st)
	}
	if len(cache.m) != 2 {
		t.Fatalf("cache entries = %d, want 2", len(cache.m))
	}
}

// TestConcurrentCachedRuns hammers one warm key from many goroutines:
// the singleflight memo must collapse them to a single cache Get.
func TestConcurrentCachedRuns(t *testing.T) {
	cache := newMapCache()
	warmup := NewRunner(cachedOptions(cache))
	spec := warmup.opts.Workloads[0]
	warmup.Run(warmup.Base(2), spec)

	r := NewRunner(cachedOptions(cache))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Run(r.Base(2), spec)
		}()
	}
	wg.Wait()
	if st := r.Stats(); st.Simulations != 0 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want exactly one cache hit and no simulations", st)
	}
	if cache.gets != 2 { // one warmup miss + one warm hit
		t.Fatalf("cache gets = %d, want 2", cache.gets)
	}
}

// referenceRunKey is the fmt-built run key format that every schema-3
// cache was written under, over the policy-study fields
// (referenceCfgKey), the machine parameters (referenceMachineKey) and
// the topology's canonical encoding (referenceCanonical). appendRunKey
// must reproduce it byte for byte, or a restarted daemon would miss
// every result its cache holds.
func referenceRunKey(o Options, cfg arch.Config, name string) string {
	return fmt.Sprintf("v%d|%s.%s|%s|iter%g.cap%d",
		cacheSchema, referenceCfgKey(cfg), referenceMachineKey(cfg), name, o.IterScale, o.MaxCTAs)
}

func referenceCfgKey(c arch.Config) string {
	return fmt.Sprintf("s%d.sm%d.l2%d.dram%g.lane%g/%d.sched%d.place%d.cache%d.link%d.wt%v.noinv%v.st%d.ct%d.lt%d",
		c.Sockets, c.SMsPerSocket, c.L2Bytes, c.DRAMBandwidth, c.LaneBandwidth, c.LanesPerDir,
		c.Sched, c.Placement, c.CacheMode, c.LinkMode, c.L2WriteThrough, c.NoL2Invalidate,
		c.LinkSampleTime, c.CacheSampleTime, c.LaneSwitchTime)
}

func referenceMachineKey(c arch.Config) string {
	k := fmt.Sprintf("w%d.cta%d.iw%d.l1_%d/%d/%d.l2_%d/%d/%d.noc%g/%d.dl%d.ll%d.sl%d.hdr%d/%d",
		c.MaxWarpsPerSM, c.MaxCTAsPerSM, c.IssueWidth,
		c.L1Bytes, c.L1Assoc, c.L1Latency,
		c.L2Assoc, c.L2Banks, c.L2Latency,
		c.NoCBandwidth, c.NoCLatency, c.DRAMLatency,
		c.LinkLatency, c.SwitchLatency,
		c.RequestHeader, c.ResponseHeader)
	if c.Topology != nil {
		k += ".topo[" + referenceCanonical(c.Topology) + "]"
	}
	return k
}

func referenceCanonical(t *topo.Topology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d.x%d", len(t.Sockets), t.Switches)
	for i, s := range t.Sockets {
		if s == (topo.SocketSpec{}) {
			continue
		}
		fmt.Fprintf(&b, ".s%d:%d/%d/%g/%d/%d", i, s.SMs, s.L2Bytes, s.DRAMBandwidth, s.DRAMLatency, s.Weight)
	}
	for _, l := range t.Links {
		fmt.Fprintf(&b, ".l%d-%d:%d/%d/%g/%d/%d/%d/%d",
			l.A, l.B, l.LanesAB, l.LanesBA, l.LaneBandwidth,
			l.LatencyAB, l.LatencyBA, l.HopsAB, l.HopsBA)
	}
	return b.String()
}

// exampleTopologies parses the shipped examples/*.json fabrics.
func exampleTopologies(tb testing.TB) []*topo.Topology {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.json"))
	if err != nil || len(paths) < 2 {
		tb.Fatalf("example topologies: %v (found %d)", err, len(paths))
	}
	var out []*topo.Topology
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		top, err := topo.Parse(data)
		if err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		out = append(out, top)
	}
	return out
}

// TestRunKeyMatchesReferenceFormat compares RunKey with the reference
// format over every divisor, iteration scale, CTA cap, workload, preset
// and socket count of the grid below, each configuration with seeded
// cache, link, write-through and invalidate overrides, fractional lane
// and DRAM bandwidths, and a nil, synthesized (with and without socket
// overrides) or shipped example topology.
func TestRunKeyMatchesReferenceFormat(t *testing.T) {
	examples := exampleTopologies(t)
	for _, top := range examples {
		if got, want := top.Canonical(), referenceCanonical(top); got != want {
			t.Fatalf("Canonical:\n got %s\nwant %s", got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	specs := workload.Table()
	n := 0
	for _, div := range []int{1, 2, 4, 8, 16} {
		for _, iter := range []float64{1, 0.25, 0.1, 1.0 / 3, 2.5, 1e-7} {
			for _, maxCTAs := range []int{0, 17, 256} {
				r := NewRunner(Options{Divisor: div, IterScale: iter, MaxCTAs: maxCTAs})
				for _, spec := range specs {
					for _, preset := range []string{"base", "traditional", "numa-aware", "monolithic"} {
						for _, sockets := range []int{1, 2, 4, 8} {
							cfg, err := r.Preset(preset, sockets)
							if err != nil {
								t.Fatal(err)
							}
							cfg = perturbKeyFields(rng, cfg, examples)
							if got, want := r.RunKey(cfg, spec), referenceRunKey(r.opts, cfg, spec.Name); got != want {
								t.Fatalf("RunKey differs from the reference format:\n got %s\nwant %s", got, want)
							}
							n++
						}
					}
				}
			}
		}
	}
	if n != 59040 {
		t.Fatalf("compared %d keys, want the whole 59040-key grid", n)
	}
}

// perturbKeyFields applies seeded overrides to the fields a sweep
// request or a hand-built configuration can set.
func perturbKeyFields(rng *rand.Rand, c arch.Config, examples []*topo.Topology) arch.Config {
	if rng.Intn(2) == 0 {
		c.CacheMode = arch.CacheMode(rng.Intn(4))
	}
	if rng.Intn(2) == 0 {
		c.LinkMode = arch.LinkMode(rng.Intn(2))
	}
	c.L2WriteThrough = rng.Intn(2) == 0
	c.NoL2Invalidate = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		c.LaneBandwidth = float64(1+rng.Intn(64)) / 3
		c.DRAMBandwidth = rng.Float64() * 1000
	}
	switch rng.Intn(4) {
	case 1:
		c.Topology = topo.Crossbar(c.Sockets, c.LanesPerDir, c.LaneBandwidth, c.LinkLatency)
	case 2:
		c.Topology = topo.Crossbar(c.Sockets, c.LanesPerDir, c.LaneBandwidth, c.LinkLatency)
		s := rng.Intn(c.Sockets)
		c.Topology.Sockets[s] = topo.SocketSpec{SMs: 1 + rng.Intn(8), DRAMBandwidth: rng.Float64() * 100, Weight: 2}
	case 3:
		if c.Sockets == len(examples[0].Sockets) {
			c.Topology = examples[rng.Intn(len(examples))]
		}
	}
	return c
}

var benchKey string

// BenchmarkRunKey times one content address of a NUMA-aware 4-socket
// run; CI fails when it reports more than 1 alloc/op.
func BenchmarkRunKey(b *testing.B) {
	r := NewRunner(Options{IterScale: 0.25})
	cfg, spec := r.NUMAAware(4), workload.Table()[0]
	b.ReportAllocs()
	for b.Loop() {
		benchKey = r.RunKey(cfg, spec)
	}
}

// BenchmarkRunKeyReference times the fmt-built reference format on the
// same run, the baseline BenchmarkRunKey is compared against.
func BenchmarkRunKeyReference(b *testing.B) {
	r := NewRunner(Options{IterScale: 0.25})
	cfg, spec := r.NUMAAware(4), workload.Table()[0]
	b.ReportAllocs()
	for b.Loop() {
		benchKey = referenceRunKey(r.opts, cfg, spec.Name)
	}
}
