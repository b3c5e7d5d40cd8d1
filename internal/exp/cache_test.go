package exp

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/topo"
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
// across workload scaling options, which cfgKey alone does not see.
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
// Config field that fails here must be added to cfgKey or machineKey —
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
