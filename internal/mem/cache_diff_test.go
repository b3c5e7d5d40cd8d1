package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
)

// TestPackedCacheMatchesReference drives the packed Cache and the
// array-of-structs refCache with the same seeded random operation
// sequences and fails on the first step where any return value, victim,
// CountValid result or statistics counter differs. The geometries cover
// direct-mapped, 4-way and 16-way caches and a single-set cache; line
// addresses include 0, whose packed tag is 1. Every multi-way geometry
// must see partitioned Fills that meet invalid ways inside their class
// group and ones that meet them only outside it: the victim pass must
// take the first, and skip the second for the group's LRU way.
func TestPackedCacheMatchesReference(t *testing.T) {
	geoms := []struct {
		name        string
		bytes, ways int
	}{
		{"1-way", 8 * arch.LineSize, 1},
		{"4-way", 16 * arch.LineSize, 4},
		{"16-way", 64 * arch.LineSize, 16},
		{"one-set", 8 * arch.LineSize, 8},
	}
	for _, g := range geoms {
		var cov victimCoverage
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				c := diffCaches(t, g.bytes, g.ways, seed, 3000)
				cov.inside += c.inside
				cov.outside += c.outside
			})
		}
		if g.ways > 1 && (cov.inside < 1000 || cov.outside < 1000) {
			t.Errorf("%s: %d partitioned fills met an invalid way inside the class group and %d only outside it; want 1000 of each",
				g.name, cov.inside, cov.outside)
		}
	}
}

// victimCoverage counts partitioned Fills of an absent line by where
// the set's invalid ways were: inside counts fills with one inside the
// class group, outside those with one outside the group but none in it.
type victimCoverage struct{ inside, outside int }

// note classifies a Fill of l in class cl against the reference state
// before the Fill runs.
func (v *victimCoverage) note(c *refCache, l arch.LineID, cl Class) {
	if !c.partition || c.Peek(l) {
		return
	}
	lo, hi := 0, c.ways[ClassLocal]
	if cl == ClassRemote {
		lo, hi = hi, c.assoc
	}
	in, out := false, false
	for i, ln := range c.set(l) {
		if !ln.valid {
			if i >= lo && i < hi {
				in = true
			} else {
				out = true
			}
		}
	}
	switch {
	case in:
		v.inside++
	case out:
		v.outside++
	}
}

func diffCaches(t *testing.T, bytes, ways int, seed int64, steps int) (cov victimCoverage) {
	t.Helper()
	got, want := NewCache(bytes, ways), newRefCache(bytes, ways)
	if got.Sets() != want.Sets() || got.Assoc() != want.Assoc() {
		t.Fatalf("geometry %dx%d, reference %dx%d", got.Sets(), got.Assoc(), want.Sets(), want.Assoc())
	}
	rng := rand.New(rand.NewSource(seed))
	// Three lines per way on average: plenty of hits, misses and
	// evictions, and line 0 comes up often.
	lines := 3 * got.Sets() * ways
	keepLocal := func(cl Class) bool { return cl == ClassLocal }
	keepRemote := func(cl Class) bool { return cl == ClassRemote }
	for step := 0; step < steps; step++ {
		l := arch.LineID(rng.Intn(lines))
		cl := Class(rng.Intn(2))
		var op string
		var g, w any
		switch k := rng.Intn(100); {
		case k < 30:
			op = fmt.Sprintf("Lookup(%d, %s)", l, cl)
			g, w = got.Lookup(l, cl), want.Lookup(l, cl)
		case k < 36:
			op = fmt.Sprintf("Peek(%d)", l)
			g, w = got.Peek(l), want.Peek(l)
		case k < 76:
			dirty := rng.Intn(3) == 0
			op = fmt.Sprintf("Fill(%d, %s, %v)", l, cl, dirty)
			cov.note(want, l, cl)
			gv, gok := got.Fill(l, cl, dirty)
			wv, wok := want.Fill(l, cl, dirty)
			g, w = [2]any{gv, gok}, [2]any{wv, wok}
		case k < 84:
			op = fmt.Sprintf("MarkDirty(%d)", l)
			g, w = got.MarkDirty(l), want.MarkDirty(l)
		case k < 89:
			op = fmt.Sprintf("Invalidate(%d)", l)
			gv, gok := got.Invalidate(l)
			wv, wok := want.Invalidate(l)
			g, w = [2]any{gv, gok}, [2]any{wv, wok}
		case k < 90:
			var keep func(Class) bool
			switch rng.Intn(3) {
			case 1:
				keep = keepLocal
			case 2:
				keep = keepRemote
			}
			op = fmt.Sprintf("InvalidateAll(keep %d)", step)
			g, w = fmt.Sprint(got.InvalidateAll(keep)), fmt.Sprint(want.InvalidateAll(keep))
		case k < 95:
			local := rng.Intn(ways + 1)
			remote := ways - local
			if rng.Intn(4) == 0 {
				remote = rng.Intn(ways + 1) // sometimes an invalid split
			}
			op = fmt.Sprintf("SetPartition(%d, %d)", local, remote)
			g, w = fmt.Sprint(got.SetPartition(local, remote)), fmt.Sprint(want.SetPartition(local, remote))
		case k < 99:
			from, to := cl, 1-cl
			op = fmt.Sprintf("ShiftWays(%s, %s)", from, to)
			g, w = got.ShiftWays(from, to), want.ShiftWays(from, to)
		default:
			op = "ClearPartition()"
			got.ClearPartition()
			want.ClearPartition()
		}
		if g != w {
			t.Fatalf("step %d %s: got %v, reference %v", step, op, g, w)
		}
		gl, gr := got.CountValid()
		wl, wr := want.CountValid()
		if gl != wl || gr != wr {
			t.Fatalf("step %d %s: CountValid %d/%d, reference %d/%d", step, op, gl, gr, wl, wr)
		}
		for c := ClassLocal; c < numClasses; c++ {
			if got.Hit[c] != want.Hit[c] || got.Fills[c] != want.Fills[c] || got.Evic[c] != want.Evic[c] {
				t.Fatalf("step %d %s: %s counters hit %v fills %v evic %v, reference %v %v %v", step, op, c,
					got.Hit[c], got.Fills[c], got.Evic[c], want.Hit[c], want.Fills[c], want.Evic[c])
			}
			if got.Ways(c) != want.Ways(c) || got.Partitioned() != want.Partitioned() {
				t.Fatalf("step %d %s: partition diverged", step, op)
			}
		}
	}
	return cov
}
