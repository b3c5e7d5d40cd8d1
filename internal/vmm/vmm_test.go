package vmm

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func TestSingleSocketAlwaysLocal(t *testing.T) {
	m := New(1, arch.PlaceFirstTouch)
	for l := arch.LineID(0); l < 1000; l += 13 {
		if m.Owner(l, 0) != 0 {
			t.Fatal("single socket must own everything")
		}
	}
}

func TestFineInterleave(t *testing.T) {
	m := New(4, arch.PlaceFineInterleave)
	// 256B granularity: lines 0,1 → socket 0; lines 2,3 → socket 1; ...
	cases := []struct {
		line arch.LineID
		want arch.SocketID
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {6, 3}, {8, 0}}
	for _, tc := range cases {
		if got := m.Owner(tc.line, 3); got != tc.want {
			t.Fatalf("line %d → socket %d, want %d", tc.line, got, tc.want)
		}
	}
}

func TestFineInterleaveRemoteFraction(t *testing.T) {
	// The paper: fine interleaving makes 75% of accesses remote on 4
	// sockets, regardless of requester.
	m := New(4, arch.PlaceFineInterleave)
	remote := 0
	const n = 4096
	for i := 0; i < n; i++ {
		if m.Owner(arch.LineID(i), 1) != 1 {
			remote++
		}
	}
	frac := float64(remote) / n
	if frac < 0.74 || frac > 0.76 {
		t.Fatalf("remote fraction %v, want 0.75", frac)
	}
}

func TestPageInterleave(t *testing.T) {
	m := New(4, arch.PlacePageInterleave)
	linesPerPage := arch.PageSize / arch.LineSize
	for p := 0; p < 16; p++ {
		want := arch.SocketID(p % 4)
		l := arch.LineID(p * linesPerPage)
		if got := m.Owner(l, 2); got != want {
			t.Fatalf("page %d → socket %d, want %d", p, got, want)
		}
		// All lines of one page share an owner.
		if got := m.Owner(l+arch.LineID(linesPerPage-1), 0); got != want {
			t.Fatalf("page %d tail line disagrees", p)
		}
	}
}

func TestFirstTouch(t *testing.T) {
	m := New(4, arch.PlaceFirstTouch)
	l := arch.LineID(12345)
	if got := m.Owner(l, 2); got != 2 {
		t.Fatalf("first touch by socket 2 placed on %d", got)
	}
	// Subsequent touches by anyone resolve to the first toucher.
	for s := arch.SocketID(0); s < 4; s++ {
		if got := m.Owner(l, s); got != 2 {
			t.Fatalf("socket %d sees owner %d, want 2", s, got)
		}
	}
	if m.Migrations.Value() != 1 {
		t.Fatalf("migrations %d, want 1", m.Migrations.Value())
	}
}

func TestPeekDoesNotPlace(t *testing.T) {
	m := New(4, arch.PlaceFirstTouch)
	if _, ok := m.Peek(99); ok {
		t.Fatal("peek must not report unmapped pages")
	}
	if m.MappedPages() != 0 {
		t.Fatal("peek must not place pages")
	}
	m.Owner(99, 1)
	if s, ok := m.Peek(99); !ok || s != 1 {
		t.Fatal("peek must see placed page")
	}
}

func TestPreplace(t *testing.T) {
	m := New(4, arch.PlaceFirstTouch)
	m.Preplace(0, 4*arch.PageSize, 3)
	for p := 0; p < 4; p++ {
		l := arch.LineID(p * (arch.PageSize / arch.LineSize))
		if got := m.Owner(l, 0); got != 3 {
			t.Fatalf("preplaced page %d owned by %d, want 3", p, got)
		}
	}
	// Preplace is a no-op for interleave policies.
	mi := New(4, arch.PlacePageInterleave)
	mi.Preplace(0, 4*arch.PageSize, 3)
	if mi.Owner(0, 0) != 0 {
		t.Fatal("preplace must not affect page interleave")
	}
}

// TestOwnerAfterRepin pins that Owner's memo of the page it resolved
// last never outlives a Preplace or PreplaceInterleave that re-pins the
// page, and that memo hits count no migrations.
func TestOwnerAfterRepin(t *testing.T) {
	m := New(4, arch.PlaceFirstTouch)
	line := arch.LineID(3 * (arch.PageSize / arch.LineSize))
	if got := m.Owner(line, 1); got != 1 {
		t.Fatalf("first touch by socket 1 placed on %d", got)
	}
	if got := m.Owner(line+1, 2); got != 1 || m.Migrations.Value() != 1 {
		t.Fatalf("same page from socket 2: owner %d, %d migrations; want 1, 1", got, m.Migrations.Value())
	}
	m.Preplace(0, 4*arch.PageSize, 3)
	if got := m.Owner(line, 0); got != 3 {
		t.Fatalf("after Preplace the page resolves to %d, want 3", got)
	}
	m.PreplaceInterleave(line.Addr(), arch.PageSize)
	if got := m.Owner(line, 2); got != 0 {
		t.Fatalf("after PreplaceInterleave the page resolves to %d, want 0", got)
	}
	if m.Migrations.Value() != 1 {
		t.Fatalf("%d migrations, want 1", m.Migrations.Value())
	}
}

func TestPreplaceInterleave(t *testing.T) {
	m := New(4, arch.PlaceFirstTouch)
	m.PreplaceInterleave(0, 8*arch.PageSize)
	linesPerPage := arch.PageSize / arch.LineSize
	for p := 0; p < 8; p++ {
		want := arch.SocketID(p % 4)
		if got := m.Owner(arch.LineID(p*linesPerPage), 0); got != want {
			t.Fatalf("page %d owned by %d, want %d", p, got, want)
		}
	}
}

func TestDistribution(t *testing.T) {
	m := New(2, arch.PlaceFirstTouch)
	m.Owner(0, 0)
	linesPerPage := arch.LineID(arch.PageSize / arch.LineSize)
	m.Owner(linesPerPage, 1)
	m.Owner(2*linesPerPage, 1)
	d := m.DistributionOf()
	if d[0] < 0.33 || d[0] > 0.34 || d[1] < 0.66 || d[1] > 0.67 {
		t.Fatalf("distribution %v, want [1/3 2/3]", d)
	}
	empty := New(2, arch.PlaceFirstTouch)
	if d := empty.DistributionOf(); d[0] != 0 || d[1] != 0 {
		t.Fatal("empty distribution must be zero")
	}
}

// TestPageTableGrowthAndOverwrite drives the open-addressed first-touch
// table far past its initial capacity and through colliding, sequential
// and re-put keys, comparing against a map reference — the properties
// the datapath relies on after the Go-map replacement.
func TestPageTableGrowthAndOverwrite(t *testing.T) {
	var pt pageTable
	pt.Init(8)
	ref := map[arch.PageID]arch.SocketID{}
	put := func(p arch.PageID, s arch.SocketID) {
		pt.Put(p, s)
		ref[p] = s
	}
	// Sequential pages (the common streaming pattern), sparse strides,
	// and overwrites.
	for i := 0; i < 10000; i++ {
		put(arch.PageID(i), arch.SocketID(i%4))
	}
	for i := 0; i < 3000; i++ {
		put(arch.PageID(i*977), arch.SocketID((i+1)%4))
	}
	for i := 0; i < 500; i++ {
		put(arch.PageID(i), arch.SocketID(3))
	}
	if pt.Len() != len(ref) {
		t.Fatalf("table n=%d, ref %d", pt.Len(), len(ref))
	}
	for p, want := range ref {
		got, ok := pt.Get(p)
		if !ok || got != want {
			t.Fatalf("page %d → (%d,%v), want (%d,true)", p, got, ok, want)
		}
	}
	if _, ok := pt.Get(arch.PageID(1 << 40)); ok {
		t.Fatal("absent key found")
	}
	// Zero value works too (Preplace before any Owner call path).
	var zero pageTable
	if _, ok := zero.Get(0); ok {
		t.Fatal("zero-value table must be empty")
	}
	zero.Put(7, 2)
	if s, ok := zero.Get(7); !ok || s != 2 {
		t.Fatal("zero-value table put/get broken")
	}
}

// TestPageTablePageZero pins that PageID 0 is a valid key (address 0 is
// in the modelled address space; a sentinel-based table would lose it).
func TestPageTablePageZero(t *testing.T) {
	m := New(4, arch.PlaceFirstTouch)
	if got := m.Owner(0, 3); got != 3 {
		t.Fatalf("line 0 first touch → %d, want 3", got)
	}
	if s, ok := m.Peek(0); !ok || s != 3 {
		t.Fatal("peek of page 0 lost")
	}
	if m.MappedPages() != 1 {
		t.Fatalf("mapped pages %d, want 1", m.MappedPages())
	}
}

// TestPropertyFirstTouchStable: once placed, ownership never changes no
// matter who asks afterwards.
func TestPropertyFirstTouchStable(t *testing.T) {
	f := func(lines []uint32, touchers []uint8) bool {
		if len(touchers) == 0 {
			return true
		}
		m := New(4, arch.PlaceFirstTouch)
		owner := map[arch.LineID]arch.SocketID{}
		for i, raw := range lines {
			l := arch.LineID(raw % 4096)
			s := arch.SocketID(touchers[i%len(touchers)] % 4)
			got := m.Owner(l, s)
			p := arch.PageOfLine(l)
			key := arch.LineID(p) // track per page
			if prev, ok := owner[key]; ok {
				if got != prev {
					return false
				}
			} else {
				owner[key] = got
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyInterleaveDeterministic: interleave policies ignore the
// requester entirely.
func TestPropertyInterleaveDeterministic(t *testing.T) {
	f := func(raw uint32, r1, r2 uint8) bool {
		l := arch.LineID(raw)
		for _, pol := range []arch.MemPlacement{arch.PlaceFineInterleave, arch.PlacePageInterleave} {
			m := New(4, pol)
			if m.Owner(l, arch.SocketID(r1%4)) != m.Owner(l, arch.SocketID(r2%4)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedInterleave: a socket of weight w receives w of every
// sum(weights) interleave units, and uniform weights reduce to the
// legacy round-robin exactly.
func TestWeightedInterleave(t *testing.T) {
	m := NewWeighted(3, arch.PlacePageInterleave, []int{2, 1, 1})
	counts := make(map[arch.SocketID]int)
	const pages = 4000 // 1000 rounds of the 4-slot schedule
	for p := 0; p < pages; p++ {
		l := arch.LineID(arch.PageID(p) << (arch.PageShift - arch.LineShift))
		counts[m.Owner(l, 0)]++
	}
	if counts[0] != 2000 || counts[1] != 1000 || counts[2] != 1000 {
		t.Fatalf("weighted distribution %v, want 2000/1000/1000", counts)
	}

	// Round-major: socket 1's first slot arrives in the first pass, not
	// after all of socket 0's.
	first := make(map[arch.SocketID]bool)
	var order []arch.SocketID
	for p := 0; p < 4; p++ {
		l := arch.LineID(arch.PageID(p) << (arch.PageShift - arch.LineShift))
		s := m.Owner(l, 0)
		if !first[s] {
			first[s] = true
			order = append(order, s)
		}
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("first-slot order %v, want [0 1 2]", order)
	}

	// Uniform weights must match the unweighted policy on every unit.
	u := NewWeighted(4, arch.PlaceFineInterleave, []int{3, 3, 3, 3})
	plain := New(4, arch.PlaceFineInterleave)
	for a := arch.Addr(0); a < 1<<14; a += 64 {
		l := arch.LineOf(a)
		if u.Owner(l, 0) != plain.Owner(l, 0) {
			t.Fatalf("uniform weights diverge from legacy interleave at %#x", a)
		}
	}
}

// TestWeightedPreplaceInterleave: preplaced striping follows the same
// weighted schedule as the interleave policies.
func TestWeightedPreplaceInterleave(t *testing.T) {
	m := NewWeighted(2, arch.PlaceFirstTouch, []int{3, 1})
	m.PreplaceInterleave(0, 8*arch.PageSize)
	dist := m.DistributionOf()
	if dist[0] != 0.75 || dist[1] != 0.25 {
		t.Fatalf("preplaced distribution %v, want [0.75 0.25]", dist)
	}
}

// TestResetUnmapsEverything: after Reset the memory places pages as a
// new one does, the page its last lookup resolved included.
func TestResetUnmapsEverything(t *testing.T) {
	m := New(4, arch.PlaceFirstTouch)
	l := arch.LineID(5)
	if m.Owner(l, 3) != 3 {
		t.Fatal("first touch by socket 3 must place on socket 3")
	}
	m.Reset()
	if m.MappedPages() != 0 || m.Migrations.Value() != 0 {
		t.Fatalf("Reset left %d pages mapped and %d migrations", m.MappedPages(), m.Migrations.Value())
	}
	if got := m.Owner(l, 1); got != 1 || m.MappedPages() != 1 {
		t.Fatalf("after Reset the first touch by socket 1 placed on %d (%d pages mapped)", got, m.MappedPages())
	}
}
