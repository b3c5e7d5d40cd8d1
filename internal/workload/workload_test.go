package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/smcore"
)

func TestTableInventory(t *testing.T) {
	table := Table()
	if len(table) != 41 {
		t.Fatalf("table has %d workloads, want 41 (Table 2)", len(table))
	}
	grey := 0
	names := map[string]bool{}
	for _, s := range table {
		if names[s.Name] {
			t.Fatalf("duplicate workload %q", s.Name)
		}
		names[s.Name] = true
		if s.Grey {
			grey++
		}
		if s.PaperCTAs <= 0 || s.PaperFootprintMB <= 0 {
			t.Errorf("%s: missing Table 2 metadata", s.Name)
		}
		if s.CTAs <= 0 || s.Warps <= 0 || s.Iters <= 0 || s.InBytes <= 0 {
			t.Errorf("%s: missing generator parameters", s.Name)
		}
	}
	if grey != 9 {
		t.Fatalf("grey workloads %d, want 9 (Figure 3 grey box)", grey)
	}
}

func TestPaperTable2SpotChecks(t *testing.T) {
	// Values transcribed from the paper's Table 2.
	checks := map[string]struct{ ctas, mb int }{
		"HPC-AMG":              {241549, 3744},
		"Other-Stream-Triad":   {699051, 3146},
		"Lonestar-SP":          {75, 8},
		"Rodinia-Euler3D":      {1008, 25},
		"HPC-RSBench":          {7813, 19},
		"Other-Bitcoin-Crypto": {60, 5898},
	}
	for name, want := range checks {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %q", name)
		}
		if s.PaperCTAs != want.ctas || s.PaperFootprintMB != want.mb {
			t.Errorf("%s: paper metadata %d/%d, want %d/%d",
				name, s.PaperCTAs, s.PaperFootprintMB, want.ctas, want.mb)
		}
	}
}

func TestByNameMissing(t *testing.T) {
	if _, ok := ByName("no-such-workload"); ok {
		t.Fatal("ByName must report missing workloads")
	}
}

func TestProgramConstruction(t *testing.T) {
	for _, s := range Table() {
		prog := s.Program(Options{IterScale: 0.1})
		if prog.Name != s.Name {
			t.Errorf("%s: program name %q", s.Name, prog.Name)
		}
		if len(prog.Kernels) == 0 {
			t.Errorf("%s: no kernels", s.Name)
		}
		for _, k := range prog.Kernels {
			if k.CTAs() < 1 || k.WarpsPerCTA() < 1 {
				t.Errorf("%s/%s: degenerate kernel", s.Name, k.Name())
			}
		}
	}
}

func TestHPGMGUVMPhaseCount(t *testing.T) {
	s, _ := ByName("HPC-HPGMG-UVM")
	prog := s.Program(DefaultOptions())
	if len(prog.Kernels) != 10 {
		t.Fatalf("HPGMG-UVM kernels %d, want 10 (two V-cycles with repeats)", len(prog.Kernels))
	}
}

func TestStreamDeterminism(t *testing.T) {
	s, _ := ByName("HPC-AMG")
	prog1 := s.Program(Options{IterScale: 0.2})
	prog2 := s.Program(Options{IterScale: 0.2})
	k1, k2 := prog1.Kernels[0], prog2.Kernels[0]
	w1, w2 := k1.Warp(3, 1), k2.Warp(3, 1)
	var i1, i2 smcore.Instr
	for step := 0; ; step++ {
		ok1 := w1.Next(&i1)
		ok2 := w2.Next(&i2)
		if ok1 != ok2 {
			t.Fatal("stream lengths differ")
		}
		if !ok1 {
			break
		}
		if i1.Op != i2.Op || i1.Comp != i2.Comp || len(i1.Lines) != len(i2.Lines) {
			t.Fatalf("step %d: instruction mismatch", step)
		}
		for j := range i1.Lines {
			if i1.Lines[j] != i2.Lines[j] {
				t.Fatalf("step %d line %d: %d vs %d", step, j, i1.Lines[j], i2.Lines[j])
			}
		}
	}
}

func TestStreamsDifferAcrossWarps(t *testing.T) {
	s, _ := ByName("HPC-AMG") // random pattern
	prog := s.Program(Options{IterScale: 0.2})
	k := prog.Kernels[0]
	a, b := k.Warp(0, 0), k.Warp(5, 1)
	var ia, ib smcore.Instr
	same := true
	for step := 0; step < 5; step++ {
		if !a.Next(&ia) || !b.Next(&ib) {
			break
		}
		if len(ia.Lines) != len(ib.Lines) {
			same = false
			break
		}
		for j := range ia.Lines {
			if ia.Lines[j] != ib.Lines[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different warps produced identical random access streams")
	}
}

func TestBroadcastSharesLines(t *testing.T) {
	s, _ := ByName("ML-GoogLeNet-cudnn-Lev2") // broadcast weights
	prog := s.Program(Options{IterScale: 0.2})
	k := prog.Kernels[0]
	a, b := k.Warp(0, 0), k.Warp(9, 1)
	var ia, ib smcore.Instr
	a.Next(&ia)
	b.Next(&ib)
	shared := 0
	for _, la := range ia.Lines {
		for _, lb := range ib.Lines {
			if la == lb {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("broadcast pattern must share weight lines across warps")
	}
}

func TestInstrLinesDeduped(t *testing.T) {
	for _, name := range []string{"HPC-RSBench", "HPC-CoMD", "Other-Stream-Triad"} {
		s, _ := ByName(name)
		prog := s.Program(Options{IterScale: 0.2})
		k := prog.Kernels[0]
		w := k.Warp(0, 0)
		var in smcore.Instr
		for w.Next(&in) {
			seen := map[arch.LineID]bool{}
			for _, l := range in.Lines {
				if seen[l] {
					t.Fatalf("%s: duplicate line %d in one instruction", name, l)
				}
				seen[l] = true
			}
		}
	}
}

func TestStreamsStayInBuffers(t *testing.T) {
	// Every generated address must land inside the workload's allocated
	// buffers (no stray pages that would corrupt placement statistics).
	for _, s := range Table() {
		prog := s.Program(Options{IterScale: 0.1, MaxCTAs: 16})
		lo := arch.Addr(1) << 32
		hi := lo + arch.Addr(s.InBytes)*4 + arch.Addr(s.SharedBytes) + (64 << 20)
		k := prog.Kernels[len(prog.Kernels)-1]
		for _, wi := range []int{0, k.WarpsPerCTA() - 1} {
			w := k.Warp(k.CTAs()-1, wi)
			var in smcore.Instr
			for w.Next(&in) {
				for _, l := range in.Lines {
					if l.Addr() < lo || l.Addr() >= hi {
						t.Fatalf("%s: line %#x outside plausible buffer range", s.Name, l.Addr())
					}
				}
			}
		}
	}
}

// issued counts the warp instructions prog's streams actually issue.
func issued(prog core.Program) int64 {
	var n int64
	var in smcore.Instr
	for _, k := range prog.Kernels {
		for c := 0; c < k.CTAs(); c++ {
			for w := 0; w < k.WarpsPerCTA(); w++ {
				for st := k.Warp(c, w); st.Next(&in); {
					n++
				}
			}
		}
	}
	return n
}

// TestIterScaleShrinksWork checks that IterScale scales the issued
// instruction count: a quarter of the iterations issues fewer
// instructions, but no fewer than an eighth, because Program floors a
// phase's iterations (at 2, or 4 for a repeated phase).
func TestIterScaleShrinksWork(t *testing.T) {
	s, _ := ByName("HPC-MiniAMR")
	full := issued(s.Program(Options{IterScale: 1, MaxCTAs: 32}))
	quarter := issued(s.Program(Options{IterScale: 0.25, MaxCTAs: 32}))
	if quarter >= full {
		t.Fatalf("scaling failed: %d >= %d", quarter, full)
	}
	if quarter < full/8 {
		t.Fatalf("scaling too aggressive: %d << %d/4", quarter, full)
	}
}

func TestMaxCTAsCap(t *testing.T) {
	s, _ := ByName("HPC-MiniAMR")
	prog := s.Program(Options{IterScale: 1, MaxCTAs: 64})
	for _, k := range prog.Kernels {
		if k.CTAs() > 64 {
			t.Fatalf("CTA cap violated: %d", k.CTAs())
		}
	}
}

func TestBufferHelpers(t *testing.T) {
	b := Buffer{Base: 1 << 32, Bytes: 1024}
	if b.Lines() != 8 {
		t.Fatalf("lines %d, want 8", b.Lines())
	}
	if b.line(0) != arch.LineOf(b.Base) {
		t.Fatal("line 0 wrong")
	}
	if b.line(8) != b.line(0) {
		t.Fatal("line indexing must wrap")
	}
	if b.line(-1) != b.line(7) {
		t.Fatal("negative index must wrap")
	}
}

func TestAllocPageAligned(t *testing.T) {
	a := newAlloc()
	b1 := a.buffer(100)
	b2 := a.buffer(1 << 20)
	if b1.Base%arch.PageSize != 0 || b2.Base%arch.PageSize != 0 {
		t.Fatal("buffers must be page aligned")
	}
	if b2.Base < b1.Base+arch.Addr(b1.Bytes) {
		t.Fatal("buffers overlap")
	}
}

// TestPropertyRNGDeterministic: equal seeds produce equal sequences,
// different seeds diverge quickly.
func TestPropertyRNGDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := newRNG(seed), newRNG(seed)
		for i := 0; i < 10; i++ {
			if a.next() != b.next() {
				return false
			}
		}
		c := newRNG(seed + 1)
		diff := false
		d := newRNG(seed)
		for i := 0; i < 10; i++ {
			if c.next() != d.next() {
				diff = true
			}
		}
		return diff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDedupe: output of dedupe contains no duplicates and every
// distinct input value.
func TestPropertyDedupe(t *testing.T) {
	f := func(raw []uint8) bool {
		lines := make([]arch.LineID, len(raw))
		distinct := map[arch.LineID]bool{}
		for i, r := range raw {
			lines[i] = arch.LineID(r % 16)
			distinct[lines[i]] = true
		}
		out := dedupe(lines)
		if len(out) != len(distinct) {
			return false
		}
		seen := map[arch.LineID]bool{}
		for _, l := range out {
			if seen[l] {
				return false
			}
			seen[l] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReverseChunks(t *testing.T) {
	p := &phaseParams{ctas: 4, warps: 2, reverse: true}
	if p.chunkIndex(0) != 7 || p.chunkIndex(7) != 0 {
		t.Fatal("reverse chunk mapping wrong")
	}
	p.reverse = false
	if p.chunkIndex(3) != 3 {
		t.Fatal("identity chunk mapping wrong")
	}
}
