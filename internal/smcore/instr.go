// Package smcore models the streaming multiprocessors of the GPU: in-
// order SIMT cores holding up to 64 resident warps, issuing one
// instruction per cycle with the greedy-then-round-robin warp scheduler
// of Table 1, and generating coalesced cache-line requests into the
// memory system.
package smcore

import "repro/internal/arch"

// MemOp classifies the memory part of an instruction.
type MemOp uint8

const (
	// OpNone marks a pure compute instruction.
	OpNone MemOp = iota
	// OpLoad blocks the issuing warp until all its lines return.
	OpLoad
	// OpStore issues writes without blocking the warp (GPU stores
	// retire through the write-through L1 asynchronously).
	OpStore
)

// Instr is one warp-level instruction: Comp cycles of compute work
// followed by an optional coalesced memory operation touching Lines.
// The SM owns the instruction and lends its line buffer to the stream:
// Lines arrives as an empty slice over that buffer, and Next appends to
// it (or points Lines at memory the stream owns). Lines is read only
// while the SM issues the instruction, before the next call to Next.
type Instr struct {
	Comp  uint32
	Op    MemOp
	Lines []arch.LineID
}

// InstrStream produces the instruction sequence of one warp. Next fills
// in, appending the instruction's lines to in.Lines[:0], and reports
// false when the warp has retired its last instruction.
type InstrStream interface {
	Next(in *Instr) bool
}

// CTA is a thread block handed to an SM: Warps instruction streams that
// must all retire for the CTA to complete.
type CTA struct {
	ID    int
	Warps []InstrStream
}

// MemPort is the SM's window into the socket memory system (implemented
// by the gpu package). A load is identified by the issuing warp's slot;
// the port calls SM.LoadDone(slot) on the issuing SM once every line
// has been serviced, so no per-load completion closure exists anywhere
// on the path. Stores are fire-and-forget from the warp's perspective
// but are drained/tracked by the socket for kernel-completion
// semantics.
type MemPort interface {
	Load(sm int, lines []arch.LineID, slot int)
	Store(sm int, lines []arch.LineID)
}
