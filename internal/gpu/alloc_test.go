package gpu

import (
	"testing"

	"repro/internal/arch"
)

// TestDatapathFastPathsAllocFree pins the tentpole property of the
// pooled datapath in the regular test tier (CI additionally gates on
// the benchmark's -benchmem output): once warmed, the L1-hit, L2-hit,
// L2-miss, remote-read and store paths allocate nothing per access.
// Skipped under the race detector, whose instrumentation allocates.
func TestDatapathFastPathsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	h := newBenchHarness(arch.CacheMemSideLocal, 0)
	line := arch.LineID(arch.PageSize / arch.LineSize)
	h.mm.Owner(line, 0)
	lines := []arch.LineID{line}

	warm := func(f func()) float64 {
		// Untimed passes grow the pools and the engine's event slab to
		// steady capacity; AllocsPerRun then measures the warm path.
		for i := 0; i < 500; i++ {
			f()
		}
		return testing.AllocsPerRun(200, f)
	}

	if n := warm(func() { h.load(0, lines); h.eng.Run() }); n != 0 {
		t.Fatalf("L1-hit path allocates %v/op, want 0", n)
	}
	if n := warm(func() {
		h.sock.L1(0).Invalidate(line)
		h.load(0, lines)
		h.eng.Run()
	}); n != 0 {
		t.Fatalf("L2-hit path allocates %v/op, want 0", n)
	}
	if n := warm(func() {
		h.sock.L1(0).Invalidate(line)
		h.sock.L2().Invalidate(line)
		h.load(0, lines)
		h.eng.Run()
	}); n != 0 {
		t.Fatalf("L2-miss path allocates %v/op, want 0", n)
	}
	if n := warm(func() { h.sock.Store(0, lines); h.eng.Run() }); n != 0 {
		t.Fatalf("store path allocates %v/op, want 0", n)
	}
	hr := newBenchHarness(arch.CacheNUMAAware, 0)
	remote := []arch.LineID{hr.remoteLine(1)}
	if n := warm(func() {
		hr.sock.L1(0).Invalidate(remote[0])
		hr.sock.L2().Invalidate(remote[0])
		hr.load(0, remote)
		hr.eng.Run()
	}); n != 0 {
		t.Fatalf("remote-read path allocates %v/op, want 0", n)
	}
	h2 := newBenchHarness(arch.CacheMemSideLocal, 4)
	merge := []arch.LineID{line, line}
	h2.mm.Owner(line, 0)
	if n := warm(func() {
		for sm := 0; sm < 4; sm++ {
			h2.load(sm, merge)
		}
		h2.eng.Run()
		h2.sock.L2().Invalidate(line)
		for sm := 0; sm < 4; sm++ {
			h2.sock.L1(sm).Invalidate(line)
		}
	}); n != 0 {
		t.Fatalf("MSHR-merge path allocates %v/op, want 0", n)
	}
}
