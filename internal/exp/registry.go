package exp

import "repro/internal/stats"

// Experiment names one harness entry point: a table or figure of the
// paper (or one of the repo's ablations beyond it). The registry is the
// single source of truth shared by cmd/numagpu, the numagpud service,
// and the determinism tests, so an experiment added here is
// automatically runnable everywhere.
type Experiment struct {
	Name string
	Desc string
	// Run takes the Runner whose attribution scope the caller wants:
	// cmd/numagpu passes its Runner, the numagpud service a per-job
	// Session of its shared one (see Runner.Session).
	Run func(*Runner) Result
}

var registry = []Experiment{
	{"table1", "simulation parameters", Table1},
	{"table2", "workload inventory", Table2},
	{"fig2", "workloads filling larger GPUs", Figure2},
	{"fig3", "SW locality vs traditional policies", Figure3},
	{"fig5", "link utilization profile (HPGMG-UVM)", Figure5},
	{"fig6", "dynamic link adaptivity vs sample time", Figure6},
	{"fig8", "cache organizations", Figure8},
	{"fig9", "SW coherence overhead in L2", Figure9},
	{"fig10", "combined improvement", Figure10},
	{"fig11", "2/4/8-socket scalability", Figure11},
	{"switchtime", "lane turn time sensitivity (Sec 4.1)", SwitchTimeSensitivity},
	{"writepolicy", "write-back vs write-through L2 (Sec 5.2)", WritePolicy},
	{"power", "interconnect power (Sec 6)", Power},
	{"lanegran", "lane granularity ablation", LaneGranularity},
	{"tenancy", "small workloads on partitioned GPUs (Sec 6)", MultiTenancy},
	{"asymfabric", "policies on an asymmetric two-pair fabric", AsymFabric},
}

// Experiments lists every experiment in presentation order. The
// returned slice is a copy; callers may reorder it freely.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ExperimentByName looks an experiment up by its registry name.
func ExperimentByName(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// NamedResult is a Result labelled with its experiment name: the one
// JSON payload shape shared by cmd/numagpu -json, the numagpud result
// endpoint, and the service client's decoder.
type NamedResult struct {
	Experiment string             `json:"experiment"`
	Table      *stats.Table       `json:"table"`
	Summary    map[string]float64 `json:"summary"`
}

// Named labels res with the experiment's registry name.
func (e Experiment) Named(res Result) NamedResult {
	return NamedResult{Experiment: e.Name, Table: res.Table, Summary: res.Summary}
}
