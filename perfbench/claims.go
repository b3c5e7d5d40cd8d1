package main

import "math"

// claim is one numeric result the paper publishes, with the experiment
// summary key the reproduction reports it under. value reads the
// comparable quantity from that experiment's summary; paper is the
// published number. atLeast marks a claim the paper states as a lower
// bound ("<2% loss") rather than a point value.
type claim struct {
	id      string
	exp     string
	key     string
	section string
	paper   float64
	atLeast bool
	value   func(sum map[string]float64) float64
}

// summaryKey reads one summary value as is.
func summaryKey(k string) func(map[string]float64) float64 {
	return func(s map[string]float64) float64 { return s[k] }
}

// claims lists every numeric claim of the paper the repository quotes
// (bench_test.go comments, docs/EXPERIMENTS.md, ROADMAP item 3). A
// "+X%" claim is compared as the factor 1+X/100, so a small absolute
// error near zero does not read as a large relative one.
var claims = []claim{
	{id: "fig2.fill_1x", exp: "fig2", key: "fill_1x_pct", section: "§2, Fig. 2", paper: 100, value: summaryKey("fill_1x_pct")},
	{id: "fig2.fill_2x", exp: "fig2", key: "fill_2x_pct", section: "§2, Fig. 2", paper: 90, value: summaryKey("fill_2x_pct")},
	{id: "fig2.fill_4x", exp: "fig2", key: "fill_4x_pct", section: "§2, Fig. 2", paper: 85, value: summaryKey("fill_4x_pct")},
	{id: "fig2.fill_8x", exp: "fig2", key: "fill_8x_pct", section: "§2, Fig. 2", paper: 80, value: summaryKey("fill_8x_pct")},
	{id: "fig6.sample_5k", exp: "fig6", key: "sample_5000_geomean", section: "§4, Fig. 6", paper: 1.14, value: summaryKey("sample_5000_geomean")},
	{id: "switchtime.turn_500", exp: "switchtime", key: "turn_500_geomean / turn_10_geomean", section: "§4.1", paper: 0.98, atLeast: true,
		value: func(s map[string]float64) float64 { return s["turn_500_geomean"] / s["turn_10_geomean"] }},
	{id: "fig8.static", exp: "fig8", key: "static_geomean", section: "§5, Fig. 8", paper: 1.54, value: summaryKey("static_geomean")},
	{id: "fig8.numa", exp: "fig8", key: "numa_geomean", section: "§5, Fig. 8", paper: 1.76, value: summaryKey("numa_geomean")},
	{id: "fig9.coherence", exp: "fig9", key: "coherence_overhead_geomean", section: "§5, Fig. 9", paper: 1.10, value: summaryKey("coherence_overhead_geomean")},
	{id: "fig10.combined", exp: "fig10", key: "comb_geomean", section: "§5, Fig. 10", paper: 2.1, value: summaryKey("comb_geomean")},
	{id: "fig10.over_baseline", exp: "fig10", key: "1 + combined_over_baseline_pct/100", section: "§5, Fig. 10", paper: 1.80,
		value: func(s map[string]float64) float64 { return 1 + s["combined_over_baseline_pct"]/100 }},
	{id: "writepolicy.wb_gain", exp: "writepolicy", key: "wb_over_wt_geomean", section: "§5.2", paper: 1.09, value: summaryKey("wb_over_wt_geomean")},
	{id: "fig11.numa_2", exp: "fig11", key: "numa_2_geomean", section: "§6, Fig. 11", paper: 1.5, value: summaryKey("numa_2_geomean")},
	{id: "fig11.numa_4", exp: "fig11", key: "numa_4_geomean", section: "§6, Fig. 11", paper: 2.3, value: summaryKey("numa_4_geomean")},
	{id: "fig11.numa_8", exp: "fig11", key: "numa_8_geomean", section: "§6, Fig. 11", paper: 3.2, value: summaryKey("numa_8_geomean")},
	{id: "fig11.eff_2", exp: "fig11", key: "efficiency_2_pct", section: "§6, Fig. 11", paper: 89, value: summaryKey("efficiency_2_pct")},
	{id: "fig11.eff_4", exp: "fig11", key: "efficiency_4_pct", section: "§6, Fig. 11", paper: 84, value: summaryKey("efficiency_4_pct")},
	{id: "fig11.eff_8", exp: "fig11", key: "efficiency_8_pct", section: "§6, Fig. 11", paper: 76, value: summaryKey("efficiency_8_pct")},
	{id: "power.baseline", exp: "power", key: "baseline_watts_geomean", section: "§6", paper: 30, value: summaryKey("baseline_watts_geomean")},
	{id: "power.numa", exp: "power", key: "numa_watts_geomean", section: "§6", paper: 14, value: summaryKey("numa_watts_geomean")},
}

// agreement scores one simulated value against the paper's:
// min(sim/paper, paper/sim) for a point claim, min(1, sim/paper) for a
// lower bound. 1 is exact agreement; 0 means the value is missing or
// not positive.
func agreement(sim, paper float64, atLeast bool) float64 {
	if sim <= 0 || paper <= 0 || math.IsNaN(sim) || math.IsInf(sim, 0) {
		return 0
	}
	r := sim / paper
	if atLeast {
		return math.Min(1, r)
	}
	return math.Min(r, 1/r)
}

// score evaluates every claim whose experiment appears in summaries
// (experiment name → summary) and returns the per-claim agreement by
// claim id plus their geometric mean.
func score(summaries map[string]map[string]float64) (map[string]float64, float64) {
	per := map[string]float64{}
	var all []float64
	for _, c := range claims {
		sum, ok := summaries[c.exp]
		if !ok {
			continue
		}
		a := agreement(c.value(sum), c.paper, c.atLeast)
		per[c.id] = a
		all = append(all, a)
	}
	for _, a := range all {
		if a == 0 {
			return per, 0
		}
	}
	return per, geomean(all)
}
