// Package workload provides synthetic reconstructions of the 41 GPU
// workloads evaluated in Milic et al. (MICRO 2017), Table 2. The real
// benchmarks were SASS traces of production codes; here each workload
// is a parameterized generator reproducing the memory behaviour the
// paper's evaluation depends on: inter-CTA locality under contiguous
// block scheduling, remote access fractions, read/write direction
// asymmetry on the inter-GPU links, cacheable shared working sets, and
// multi-kernel phase structure.
package workload

import (
	"repro/internal/arch"
	"repro/internal/smcore"
)

// Buffer is a contiguous region of the unified virtual address space.
type Buffer struct {
	Base  arch.Addr
	Bytes int64
}

// Lines reports the buffer size in cache lines (at least 1).
func (b Buffer) Lines() int64 {
	n := b.Bytes / arch.LineSize
	if n < 1 {
		n = 1
	}
	return n
}

// line returns the i-th line of the buffer (i need not be bounded).
func (b Buffer) line(i int64) arch.LineID {
	n := b.Lines()
	i %= n
	if i < 0 {
		i += n
	}
	return arch.LineOf(b.Base) + arch.LineID(i)
}

// alloc is a bump allocator for workload buffers. Each workload owns
// the whole virtual address space of its run, so a fixed base is fine.
type alloc struct{ next arch.Addr }

func newAlloc() *alloc { return &alloc{next: 1 << 32} }

func (a *alloc) buffer(bytes int64) Buffer {
	if bytes < arch.LineSize {
		bytes = arch.LineSize
	}
	// Page-align so first-touch placement of one buffer never bleeds
	// into another.
	base := (a.next + arch.PageSize - 1) &^ (arch.PageSize - 1)
	a.next = base + arch.Addr(bytes)
	return Buffer{Base: base, Bytes: bytes}
}

// splitmix64 seeds the per-warp xorshift generators.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a xorshift64* generator: deterministic, allocation-free.
type rng uint64

func newRNG(seed uint64) rng {
	s := splitmix64(seed)
	if s == 0 {
		s = 0x2545f4914f6cdd1d
	}
	return rng(s)
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545f4914f6cdd1d
}

// phaseParams is one kernel's fully resolved access pattern, shared by
// all its warp streams.
type phaseParams struct {
	name  string
	ctas  int
	warps int // per CTA
	iters int

	compute uint32

	localLines  int // sequential reads from the warp's own chunk
	haloLines   int // reads from the successor warp's chunk (stencil)
	sharedLines int // reads from the shared buffer
	broadcast   bool
	hotSkew     bool // half the random shared accesses hit a hot 1/16 region
	storeLines  int  // writes per iteration
	gather      bool // stores target the gather buffer instead of Out

	// Chunk remapping: offsetLines shifts every chunk into the tail of
	// the buffer (shrinking active regions, e.g. elimination fronts);
	// reverse assigns warp g the chunk of warp W-1-g (scatter phases
	// whose ownership disagrees with the first-touch placement).
	offsetLines int64
	reverse     bool

	in, out, shared, gather2 Buffer
	chunkLines               int64 // per-warp chunk in the In buffer
	outChunkLines            int64
	seed                     uint64
}

// chunkIndex resolves the (possibly reversed) chunk of warp g.
func (p *phaseParams) chunkIndex(g int64) int64 {
	if p.reverse {
		return int64(p.totalWarps()) - 1 - g
	}
	return g
}

func (p *phaseParams) totalWarps() int { return p.ctas * p.warps }

// stream is the instruction stream of one warp executing one phase.
// It holds no line buffer: Next appends into the one the SM lends it.
type stream struct {
	p     *phaseParams
	gwarp int64
	iter  int
	stage uint8 // 0: load step, 1: store step
	r     rng
}

func newStream(p *phaseParams, cta, warp int) *stream {
	g := int64(cta)*int64(p.warps) + int64(warp)
	return &stream{
		p:     p,
		gwarp: g,
		r:     newRNG(p.seed ^ uint64(g)*0x9e3779b97f4a7c15),
	}
}

var _ smcore.InstrStream = (*stream)(nil)

// Next implements smcore.InstrStream: each iteration issues an optional
// coalesced load (own chunk + halo + shared lines) followed by an
// optional coalesced store; compute cycles attach to the first
// instruction of the iteration. The lines go into in.Lines[:0].
func (s *stream) Next(in *smcore.Instr) bool {
	p := s.p
	for {
		if s.iter >= p.iters {
			return false
		}
		switch s.stage {
		case 0:
			s.stage = 1
			in.Lines = s.loadLines(in.Lines[:0])
			if len(in.Lines) == 0 {
				if p.storeLines == 0 {
					// Pure compute iteration.
					s.advance()
					in.Comp = p.compute
					in.Op = smcore.OpNone
					return true
				}
				continue // straight to the store step
			}
			in.Comp = p.compute
			in.Op = smcore.OpLoad
			return true
		default:
			in.Lines = s.storeTargets(in.Lines[:0])
			hadLoad := p.localLines+p.haloLines+p.sharedLines > 0
			s.advance()
			if len(in.Lines) == 0 {
				continue
			}
			in.Op = smcore.OpStore
			if hadLoad {
				in.Comp = 0 // compute was charged on the load
			} else {
				in.Comp = p.compute
			}
			return true
		}
	}
}

func (s *stream) advance() {
	s.iter++
	s.stage = 0
}

// loadLines appends the iteration's load lines to buf, deduplicated.
func (s *stream) loadLines(buf []arch.LineID) []arch.LineID {
	p := s.p
	it := int64(s.iter)
	if p.localLines > 0 && p.chunkLines > 0 {
		base := p.offsetLines + p.chunkIndex(s.gwarp)*p.chunkLines
		for j := 0; j < p.localLines; j++ {
			off := (it*int64(p.localLines) + int64(j)) % p.chunkLines
			buf = append(buf, p.in.line(base+off))
		}
	}
	if p.haloLines > 0 && p.chunkLines > 0 {
		nb := (s.gwarp + 1) % int64(p.totalWarps())
		base := p.offsetLines + p.chunkIndex(nb)*p.chunkLines
		for j := 0; j < p.haloLines; j++ {
			off := (it + int64(j)) % p.chunkLines
			buf = append(buf, p.in.line(base+off))
		}
	}
	if p.sharedLines > 0 {
		sl := p.shared.Lines()
		for j := 0; j < p.sharedLines; j++ {
			var idx int64
			switch {
			case p.broadcast:
				idx = (it*int64(p.sharedLines) + int64(j)) % sl
			case p.hotSkew && s.r.next()&1 == 0:
				// Skewed structures (graph degree tails, cross-section
				// resonances): half the lookups land in a hot 1/16 of
				// the buffer that on-chip caches capture.
				hot := sl / 16
				if hot < 1 {
					hot = 1
				}
				idx = int64(s.r.next() % uint64(hot))
			default:
				idx = int64(s.r.next() % uint64(sl))
			}
			buf = append(buf, p.shared.line(idx))
		}
	}
	return dedupe(buf)
}

// storeTargets appends the iteration's store lines to buf, deduplicated.
func (s *stream) storeTargets(buf []arch.LineID) []arch.LineID {
	p := s.p
	if p.storeLines == 0 {
		return buf
	}
	it := int64(s.iter)
	if p.gather {
		gl := p.gather2.Lines()
		for j := 0; j < p.storeLines; j++ {
			idx := (s.gwarp + int64(j+1)*int64(p.totalWarps()) + it) % gl
			buf = append(buf, p.gather2.line(idx))
		}
	} else if p.outChunkLines > 0 {
		base := p.chunkIndex(s.gwarp) * p.outChunkLines
		for j := 0; j < p.storeLines; j++ {
			off := (it*int64(p.storeLines) + int64(j)) % p.outChunkLines
			buf = append(buf, p.out.line(base+off))
		}
	}
	return dedupe(buf)
}

// dedupe removes duplicate lines in place (coalescing guarantees one
// request per distinct line per instruction).
func dedupe(lines []arch.LineID) []arch.LineID {
	out := lines[:0]
	for _, l := range lines {
		seen := false
		for _, p := range out {
			if p == l {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, l)
		}
	}
	return out
}
