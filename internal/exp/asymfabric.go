package exp

import (
	"sort"

	"repro/internal/arch"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// AsymPairsTopology is the asymmetric-fabric reference machine the
// paper's symmetric crossbar could not express: four sockets arranged
// as two tightly-coupled pairs (0-1 and 2-3, double-width short links,
// NVLink-clique style) joined by a single thin bridge (1-2, half the
// lanes, 2× the wire latency, one switch traversal per crossing).
// Cross-pair traffic is multi-hop — socket 0 reaches socket 3 over
// three physical links — so placement and scheduling policies face real
// non-uniform remote costs. Link parameters derive from c so the
// machine scales with the harness divisor exactly like the crossbar.
func AsymPairsTopology(c arch.Config) *topo.Topology {
	fat := 2 * c.LanesPerDir
	fatLat := c.LinkLatency / 2
	thin := c.LanesPerDir / 2
	if thin < 1 {
		thin = 1
	}
	pair := func(a, b int) topo.LinkSpec {
		return topo.LinkSpec{
			A: a, B: b,
			LanesAB: fat, LanesBA: fat,
			LaneBandwidth: c.LaneBandwidth,
			LatencyAB:     fatLat, LatencyBA: fatLat,
		}
	}
	return &topo.Topology{
		Sockets: make([]topo.SocketSpec, 4),
		Links: []topo.LinkSpec{
			pair(0, 1),
			pair(2, 3),
			{
				A: 1, B: 2,
				LanesAB: thin, LanesBA: thin,
				LaneBandwidth: c.LaneBandwidth,
				LatencyAB:     2 * c.LinkLatency, LatencyBA: 2 * c.LinkLatency,
				HopsAB: 1, HopsBA: 1,
			},
		},
	}
}

// AsymFabric is the experiment family the topology refactor unlocks:
// the three policy stacks of Figure 3/10 re-run on the two-pair
// asymmetric fabric, each reported as speedup over the locality
// baseline on the paper's symmetric crossbar. Columns near 1.0 mean
// the policy hides the thin bridge; Traditional's fine-grained
// interleaving cannot (75% of its accesses cross sockets, half of
// those over the bridge). Every other evaluated workload runs, keeping
// the golden suite's runtime bounded while spanning all categories.
func AsymFabric(r *Runner) Result {
	all := r.evaluated()
	var specs []workload.Spec
	for i, s := range all {
		if i%2 == 0 {
			specs = append(specs, s)
		}
	}

	asym := AsymPairsTopology(arch.ScaledConfig(r.Options().Divisor))
	onAsym := func(c arch.Config) arch.Config {
		c.Topology = asym
		return c
	}
	symBase := r.Base(4)
	symBase.Topology = nil // the crossbar reference, even under -topology

	var reqs []RunRequest
	for _, spec := range specs {
		reqs = append(reqs, RunRequest{symBase, spec})
		reqs = append(reqs, RunRequest{onAsym(r.Traditional(4)), spec})
		reqs = append(reqs, RunRequest{onAsym(r.Base(4)), spec})
		reqs = append(reqs, RunRequest{onAsym(r.NUMAAware(4)), spec})
	}
	res := r.RunAll(reqs)
	const stride = 4

	// Rows ordered by how much the NUMA-aware stack recovers, largest
	// first.
	type scored struct {
		idx  int
		gain float64
	}
	var sc []scored
	for i := range specs {
		base := res[stride*i]
		sc = append(sc, scored{i, res[stride*i+3].SpeedupOver(base)})
	}
	sort.Slice(sc, func(i, j int) bool { return sc[i].gain > sc[j].gain })

	t := stats.NewTable("Asymmetric fabric: two fat pairs + thin bridge, speedup over symmetric-crossbar locality baseline (4-socket)",
		"Workload", "Traditional", "Locality-Opt", "NUMA-aware")
	cols := []string{"traditional", "locality", "numa"}
	speeds := make(map[string][]float64)
	for _, s := range sc {
		base := res[stride*s.idx]
		row := []any{specs[s.idx].Name}
		for j, c := range cols {
			sp := res[stride*s.idx+1+j].SpeedupOver(base)
			speeds[c] = append(speeds[c], sp)
			row = append(row, sp)
		}
		t.AddRowf(row...)
	}
	sum := map[string]float64{
		"traditional_geomean": stats.GeoMean(speeds["traditional"]),
		"locality_geomean":    stats.GeoMean(speeds["locality"]),
		"numa_geomean":        stats.GeoMean(speeds["numa"]),
		"traditional_mean":    stats.Mean(speeds["traditional"]),
		"locality_mean":       stats.Mean(speeds["locality"]),
		"numa_mean":           stats.Mean(speeds["numa"]),
	}
	t.AddRowf("ArithMean", sum["traditional_mean"], sum["locality_mean"], sum["numa_mean"])
	t.AddRowf("GeoMean", sum["traditional_geomean"], sum["locality_geomean"], sum["numa_geomean"])
	return Result{Table: t, Summary: sum}
}
