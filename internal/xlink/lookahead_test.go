package xlink

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/topo"
)

// floydMinPaths computes all-pairs minimum path latencies over a
// topology with Floyd–Warshall — a deliberately different algorithm
// from the fabric's per-source Dijkstra — applying the same defaulting
// rules NewFabric does (omitted latencies inherit cfg.LinkLatency on
// user topologies; the synthesized crossbar is taken verbatim).
func floydMinPaths(t *topo.Topology, cfg arch.Config, synthesized bool) [][]sim.Time {
	n := t.Nodes()
	const inf = sim.Time(1) << 62
	dist := make([][]sim.Time, n)
	for i := range dist {
		dist[i] = make([]sim.Time, n)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = inf
			}
		}
	}
	edge := func(a, b int, lat, hops int) {
		w := sim.Time(lat) + sim.Time(hops)*sim.Time(cfg.SwitchLatency)
		if w < dist[a][b] {
			dist[a][b] = w
		}
	}
	for _, ls := range t.Links {
		latAB, latBA := ls.LatencyAB, ls.LatencyBA
		if !synthesized {
			if latAB == 0 {
				latAB = cfg.LinkLatency
			}
			if latBA == 0 {
				latBA = cfg.LinkLatency
			}
		}
		edge(ls.A, ls.B, latAB, ls.HopsAB)
		edge(ls.B, ls.A, latBA, ls.HopsBA)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if dist[i][k] != inf && dist[k][j] != inf && dist[i][k]+dist[k][j] < dist[i][j] {
					dist[i][j] = dist[i][k] + dist[k][j]
				}
			}
		}
	}
	return dist
}

// TestLookaheadBoundProperty checks the derived lookahead bound on
// every example topology shipped in examples/*.json plus the
// nil-topology crossbar: the fabric's MinPathCost must equal the
// independently computed minimum over per-pair path costs, and every
// individual PathCost must equal its all-pairs shortest latency.
func TestLookaheadBoundProperty(t *testing.T) {
	type tcase struct {
		name        string
		top         *topo.Topology // nil = legacy crossbar
		synthesized bool
	}
	cases := []tcase{{name: "nil-crossbar"}}
	files, err := filepath.Glob("../../examples/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example topologies found: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		top, err := topo.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		cases = append(cases, tcase{name: filepath.Base(path), top: top})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := arch.TestConfig()
			top := tc.top
			synthesized := top == nil
			if synthesized {
				top = topo.Crossbar(cfg.Sockets, cfg.LanesPerDir, cfg.LaneBandwidth, cfg.LinkLatency)
			} else {
				cfg.Sockets = len(top.Sockets)
				cfg.Topology = top
			}
			f := NewFabric(sim.New(), cfg)
			dist := floydMinPaths(top, cfg, synthesized)
			sockets := len(top.Sockets)
			want := sim.Time(0)
			first := true
			for src := 0; src < sockets; src++ {
				for dst := 0; dst < sockets; dst++ {
					if src == dst {
						continue
					}
					got := f.PathCost(arch.SocketID(src), arch.SocketID(dst))
					if got != dist[src][dst] {
						t.Errorf("PathCost(%d,%d) = %d, Floyd–Warshall says %d", src, dst, got, dist[src][dst])
					}
					if first || dist[src][dst] < want {
						want, first = dist[src][dst], false
					}
				}
			}
			if got := f.MinPathCost(); got != want {
				t.Fatalf("MinPathCost = %d, want %d (min over per-pair path costs)", got, want)
			}
			if got := f.MinPathCost(); got < 1 {
				t.Fatalf("MinPathCost = %d: not a usable lookahead bound", got)
			}
		})
	}
}

// TestShardedRouteValidation pins both sides of the delivery check on a
// sharded fabric: routes under the true MinPathCost bound are counted
// as legal crossings, and a crafted sub-bound crossing — simulated by
// inflating the engine's lookahead past the fastest real path — panics
// loudly at delivery instead of silently corrupting the window
// protocol.
func TestShardedRouteValidation(t *testing.T) {
	build := func(lookaheadBump sim.Time) (*sim.ParallelEngine, *Fabric) {
		cfg := arch.TestConfig()
		pe := sim.NewLockstep(cfg.Sockets, 1)
		eng := pe.Shard(0)
		f := NewFabric(eng, cfg)
		pe.SetLookahead(f.MinPathCost() + lookaheadBump)
		f.EnableSharding(pe, func(id arch.SocketID) int { return int(id) })
		return pe, f
	}

	pe, f := build(0)
	delivered := 0
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if src != dst {
				f.RouteArg(arch.SocketID(src), arch.SocketID(dst), 128, func(sim.Time, int) { delivered++ }, 0)
			}
		}
	}
	pe.Run()
	if delivered != 12 {
		t.Fatalf("delivered %d routes, want 12", delivered)
	}
	if pe.CrossDelivered() != 12 {
		t.Fatalf("CrossDelivered = %d, want 12 validated crossings", pe.CrossDelivered())
	}

	// A message arriving faster than the engine's bound must be rejected
	// loudly: with the bound inflated past the unloaded path cost plus
	// its serialization slack, the real fastest path is now sub-bound.
	pe, f = build(64)
	f.RouteArg(0, 1, 1, nil, 0) // minimal serialization: near the unloaded path cost
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("sub-bound cross-shard delivery was not rejected")
		}
		if msg, ok := p.(string); !ok || !strings.Contains(msg, "below the lookahead bound") {
			t.Fatalf("panic %v, want the lookahead-bound rejection", p)
		}
	}()
	pe.Run()
}
