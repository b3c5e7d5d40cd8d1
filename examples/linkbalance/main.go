// Linkbalance demonstrates the Section 4 mechanism on a gather-style
// workload: CTAs on sockets 1–3 write their results into buffers homed
// on socket 0, saturating their egress lanes while ingress sits idle.
// The dynamic balancer re-points lanes and the kernel speeds up; the
// per-GPU utilization profile (Figure 5 style) is printed for both
// configurations. The profile is the observability layer's per-link
// utilization series, normalized to each direction's current lane
// bandwidth.
//
//	go run ./examples/linkbalance
package main

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

func run(mode arch.LinkMode) (core.Result, *obs.Collector) {
	cfg := arch.ScaledConfig(8)
	cfg.LinkMode = mode
	cfg.Obs = arch.ObsSpec{Series: true, SamplePeriod: 5000}

	spec, ok := workload.ByName("ML-AlexNet-cudnn-Lev2") // gather-heavy
	if !ok {
		panic("workload missing")
	}
	sys := core.MustSystem(cfg)
	res := sys.Run(spec.Program(workload.Options{IterScale: 0.5}))
	return res, sys.Obs()
}

func bar(v float64) string {
	n := int(v * 20)
	if n > 20 {
		n = 20
	}
	return strings.Repeat("#", n) + strings.Repeat(".", 20-n)
}

func mean(s *obs.Series) float64 {
	if s.Len() == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < s.Len(); i++ {
		sum += s.At(i).Value
	}
	return sum / float64(s.Len())
}

func main() {
	static, scol := run(arch.LinkStatic)
	dynamic, dcol := run(arch.LinkDynamic)

	_, in0 := scol.LinkUtil(0)
	seg1, sin1 := scol.LinkUtil(1)
	deg1, din1 := dcol.LinkUtil(1)
	fmt.Println("GPU0 ingress vs GPU1 egress utilization over time (static links):")
	fmt.Println("   window    GPU0-in               GPU1-out")
	for i := 0; i < in0.Len() && i < 12; i++ {
		fmt.Printf("   %7d    %s  %s\n", in0.At(i).At, bar(in0.At(i).Value), bar(seg1.At(i).Value))
	}

	fmt.Printf("\nstatic links : %10d cycles (GPU1 egress mean %.2f, ingress mean %.2f)\n",
		static.Cycles, mean(seg1), mean(sin1))
	fmt.Printf("dynamic links: %10d cycles (GPU1 egress mean %.2f, ingress mean %.2f), %d lane turns\n",
		dynamic.Cycles, mean(deg1), mean(din1), dynamic.LaneTurns)
	fmt.Printf("\nspeedup from dynamic lane assignment: %.2fx\n", dynamic.SpeedupOver(static))
}
