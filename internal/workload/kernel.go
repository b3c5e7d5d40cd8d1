package workload

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/smcore"
	"repro/internal/vmm"
)

// Phase is a declarative kernel template within a workload. Zero-valued
// fields inherit the workload's defaults; Repeat expands the phase into
// that many identical kernel launches (phase behaviour over time).
type Phase struct {
	Name   string
	Repeat int // kernel launches of this phase (default 1)

	CTAs  int // grid size (default: Spec.CTAs)
	Warps int // warps per CTA (default: Spec.Warps)
	Iters int // iterations per warp (default: Spec.Iters)

	Compute     int  // compute cycles per iteration
	LocalLines  int  // sequential own-chunk lines read per iteration
	HaloLines   int  // successor-chunk lines read per iteration (stencil)
	SharedLines int  // shared-buffer lines read per iteration
	Broadcast   bool // shared reads identical across warps (weights)
	HotSkew     bool // skewed random shared access (hot 1/16 region)
	StoreLines  int  // lines written per iteration
	Gather      bool // stores hit the socket-0-homed gather buffer

	// OffsetFrac shifts chunks into the tail fraction of the buffer
	// (shrinking active regions whose partition misaligns with the
	// first-touch ownership of earlier phases). Reverse assigns chunks
	// in opposite warp order (scatter/transpose-style phases).
	OffsetFrac float64
	Reverse    bool
}

// Spec describes one of the 41 workloads: the paper's Table 2 metadata
// plus the synthetic generator parameters at simulation scale.
type Spec struct {
	Name string

	// Table 2 metadata (paper scale), used by Figure 2 and Table 2.
	PaperCTAs        int
	PaperFootprintMB int

	// Grey marks workloads achieving ≥99% of theoretical scaling with
	// software-only locality optimization (the grey box of Figure 3);
	// the paper excludes them from Figures 6, 8, 9 and 10.
	Grey bool

	// Generator defaults (simulation scale).
	CTAs  int
	Warps int
	Iters int

	// Buffer sizes at simulation scale.
	InBytes     int64
	OutBytes    int64 // default: InBytes
	SharedBytes int64
	GatherBytes int64 // default: 128KB when any phase gathers

	Phases []Phase
}

// Options scales workloads for different harness budgets.
type Options struct {
	// IterScale multiplies every phase's iteration count (minimum 2
	// iterations survive). 1.0 reproduces the reference size.
	IterScale float64
	// MaxCTAs caps grid sizes (0 = uncapped); unit tests use small caps.
	MaxCTAs int
}

// DefaultOptions is the reference experiment size.
func DefaultOptions() Options { return Options{IterScale: 1} }

// kernel implements core.Kernel for one phase instance.
type kernel struct {
	name string
	p    *phaseParams
}

func (k *kernel) Name() string     { return k.name }
func (k *kernel) CTAs() int        { return k.p.ctas }
func (k *kernel) WarpsPerCTA() int { return k.p.warps }

func (k *kernel) Warp(c, w int) smcore.InstrStream { return newStream(k.p, c, w) }

// Program materializes the workload into a runnable core.Program.
func (s Spec) Program(o Options) core.Program {
	if o.IterScale <= 0 {
		o.IterScale = 1
	}
	a := newAlloc()
	in := a.buffer(s.InBytes)
	outBytes := s.OutBytes
	if outBytes == 0 {
		outBytes = s.InBytes
	}
	out := a.buffer(outBytes)
	shared := a.buffer(maxI64(s.SharedBytes, arch.LineSize))
	gatherBytes := s.GatherBytes
	hasGather := false
	for _, ph := range s.Phases {
		if ph.Gather {
			hasGather = true
		}
	}
	if gatherBytes == 0 && hasGather {
		gatherBytes = 128 << 10
	}
	gather := a.buffer(maxI64(gatherBytes, arch.LineSize))

	prog := core.Program{Name: s.Name}
	hasShared := s.SharedBytes > 0
	if hasGather || hasShared {
		prog.Setup = func(m *vmm.Memory) {
			if hasShared {
				// Shared structures (graphs, lookup tables, weights)
				// were initialized by a striped kernel, so their pages
				// interleave across sockets.
				m.PreplaceInterleave(shared.Base, shared.Bytes)
			}
			if hasGather {
				// The gather buffer models output first-touched by an
				// earlier phase on socket 0 (host staging or an init
				// kernel): the source of the one-sided ingress
				// saturation of Figure 5.
				m.Preplace(gather.Base, gather.Bytes, 0)
			}
		}
	}

	phases := s.Phases
	if len(phases) == 0 {
		phases = []Phase{{}}
	}
	for pi, ph := range phases {
		repeat := ph.Repeat
		if repeat < 1 {
			repeat = 1
		}
		ctas := pick(ph.CTAs, s.CTAs)
		warps := pick(ph.Warps, s.Warps)
		iters := pick(ph.Iters, s.Iters)
		iters = int(float64(iters) * o.IterScale)
		minIters := 2
		if repeat > 1 {
			// Multi-kernel workloads need kernels long enough that the
			// coherence flush tax stays in the regime the paper
			// measures, even under aggressive IterScale.
			minIters = 4
		}
		if iters < minIters {
			iters = minIters
		}
		if o.MaxCTAs > 0 && ctas > o.MaxCTAs {
			ctas = o.MaxCTAs
		}
		if ctas < 1 {
			ctas = 1
		}
		if warps < 1 {
			warps = 1
		}
		totalWarps := int64(ctas) * int64(warps)
		p := &phaseParams{
			name:        ph.Name,
			ctas:        ctas,
			warps:       warps,
			iters:       iters,
			compute:     uint32(ph.Compute),
			localLines:  ph.LocalLines,
			haloLines:   ph.HaloLines,
			sharedLines: ph.SharedLines,
			broadcast:   ph.Broadcast,
			hotSkew:     ph.HotSkew,
			storeLines:  ph.StoreLines,
			gather:      ph.Gather,
			reverse:     ph.Reverse,
			in:          in,
			out:         out,
			shared:      shared,
			gather2:     gather,
			seed:        splitmix64(uint64(hashString(s.Name)) + uint64(pi)<<32),
		}
		if ph.OffsetFrac > 0 && ph.OffsetFrac < 1 {
			p.offsetLines = int64(float64(in.Lines()) * ph.OffsetFrac)
		}
		p.chunkLines = maxI64((in.Lines()-p.offsetLines)/totalWarps, 1)
		p.outChunkLines = maxI64(out.Lines()/totalWarps, 1)
		kname := ph.Name
		if kname == "" {
			kname = fmt.Sprintf("%s-k%d", s.Name, pi)
		}
		for r := 0; r < repeat; r++ {
			prog.Kernels = append(prog.Kernels, &kernel{name: kname, p: p})
		}
	}
	return prog
}

func pick(v, dflt int) int {
	if v != 0 {
		return v
	}
	return dflt
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func hashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
