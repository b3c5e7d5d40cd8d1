package xlink

import (
	"os"
	"path/filepath"
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

// TestLookaheadBoundProperty checks the fabric's path costs on every
// example topology shipped in examples/*.json plus the nil-topology
// crossbar: every PathCost — the fastest a message can make that
// crossing, the lower bound on how soon one socket can affect another —
// must be positive and equal the pair's all-pairs shortest latency, so
// the fabric's Dijkstra routes are the shortest paths.
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
			for src := 0; src < sockets; src++ {
				for dst := 0; dst < sockets; dst++ {
					if src == dst {
						continue
					}
					got := f.PathCost(arch.SocketID(src), arch.SocketID(dst))
					if got != dist[src][dst] {
						t.Errorf("PathCost(%d,%d) = %d, Floyd–Warshall says %d", src, dst, got, dist[src][dst])
					}
					if got < 1 {
						t.Errorf("PathCost(%d,%d) = %d: a crossing must take time", src, dst, got)
					}
				}
			}
		})
	}
}
