package exp

import (
	"fmt"

	"repro/internal/stats"
)

// Table1 renders the simulation parameters (paper Table 1) from the
// configuration actually used by this harness, alongside the paper-
// scale values.
func Table1(r *Runner) Result {
	paper := r.Base(4)
	// Undo the divisor to show the paper machine next to the harness
	// machine.
	t := stats.NewTable("Table 1: simulation parameters",
		"Parameter", "Paper value", "Harness value (1/"+fmt.Sprint(r.Options().Divisor)+" scale)")
	add := func(name, pv, hv string) { t.AddRow(name, pv, hv) }
	add("GPU sockets", "4", fmt.Sprint(paper.Sockets))
	add("SMs per socket", "64", fmt.Sprint(paper.SMsPerSocket))
	add("GPU frequency", "1GHz", "1GHz (1 cycle = 1ns)")
	add("Max warps per SM", "64", fmt.Sprint(paper.MaxWarpsPerSM))
	add("Warp scheduler", "Greedy then Round Robin", "Greedy then Round Robin")
	add("L1 cache", "128KB/SM, 128B lines, 4-way, WT, SW-coherent",
		fmt.Sprintf("%dKB/SM, 128B lines, %d-way, WT, SW-coherent", paper.L1Bytes>>10, paper.L1Assoc))
	add("L2 cache", "4MB/socket, 128B lines, 16-way, WB, mem-side",
		fmt.Sprintf("%dKB/socket, 128B lines, %d-way, WB", paper.L2Bytes>>10, paper.L2Assoc))
	add("GPU-GPU interconnect", "128GB/s per socket (64 each dir), 8 lanes x 8B, 128-cycle latency",
		fmt.Sprintf("%.0fGB/s per direction, %d lanes x %.1fGB/s, %d-cycle latency",
			paper.LinkDirBandwidth(), paper.LanesPerDir, paper.LaneBandwidth, paper.LinkLatency))
	add("DRAM bandwidth", "768GB/s per socket", fmt.Sprintf("%.0fGB/s per socket", paper.DRAMBandwidth))
	add("DRAM latency", "100ns", fmt.Sprintf("%dns", paper.DRAMLatency))
	return Result{Table: t, Summary: map[string]float64{
		"sockets":      float64(paper.Sockets),
		"sms_per_sock": float64(paper.SMsPerSocket),
		"dram_to_link": paper.DRAMBandwidth / paper.LinkDirBandwidth(),
	}}
}

// Table2 renders the workload inventory with the paper's time-weighted
// CTA counts and memory footprints (paper Table 2), plus the synthetic
// generator's simulation-scale grid.
func Table2(r *Runner) Result {
	t := stats.NewTable("Table 2: workloads (paper metadata + simulation-scale grids)",
		"Workload", "Paper CTAs", "Paper MB", "Sim CTAs", "Warps/CTA", "Grey")
	var totalCTAs float64
	for _, s := range r.Options().Workloads {
		grey := ""
		if s.Grey {
			grey = "yes"
		}
		t.AddRowf(s.Name, s.PaperCTAs, s.PaperFootprintMB, s.CTAs, s.Warps, grey)
		totalCTAs += float64(s.PaperCTAs)
	}
	return Result{Table: t, Summary: map[string]float64{
		"workloads":       float64(len(r.Options().Workloads)),
		"mean_paper_ctas": totalCTAs / float64(len(r.Options().Workloads)),
	}}
}
