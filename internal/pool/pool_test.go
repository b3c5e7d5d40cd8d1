package pool

import (
	"slices"
	"testing"
)

// TestReuseIsLastInFirstOut pins the order the datapath's results were
// produced under: a Put takes the index freed last, and only an empty
// free list extends the pool.
func TestReuseIsLastInFirstOut(t *testing.T) {
	var p Pool[int]
	for i := 0; i < 5; i++ {
		if got := p.Put(10 + i); got != i {
			t.Fatalf("Put %d into a fresh pool returned index %d", i, got)
		}
	}
	p.Free(1)
	p.Free(3)
	p.Free(0)
	var got []int
	for i := 0; i < 4; i++ {
		got = append(got, p.Put(20+i))
	}
	if want := []int{0, 3, 1, 5}; !slices.Equal(got, want) {
		t.Fatalf("indices after freeing 1, 3, 0: %v, want %v", got, want)
	}
	if *p.At(3) != 21 || *p.At(5) != 23 {
		t.Fatalf("records %d, %d; want 21, 23", *p.At(3), *p.At(5))
	}
}

// TestResetRestartsAtZero: after Reset the pool hands out indices in
// the order of a new pool, whatever was live or freed before.
func TestResetRestartsAtZero(t *testing.T) {
	var p Pool[int]
	for i := 0; i < 6; i++ {
		p.Put(i)
	}
	p.Free(4)
	p.Free(2)
	p.Reset()
	if p.Live() != 0 {
		t.Fatalf("%d records live after Reset", p.Live())
	}
	for i := 0; i < 8; i++ {
		if got := p.Put(i); got != i {
			t.Fatalf("Put %d after Reset returned index %d", i, got)
		}
	}
}

// TestLiveCountsEachPool: Live counts puts minus frees, so a leak reads
// above zero and a double free below it; a caller checking several
// pools checks each on its own, since a leak in one and a double free
// in another would cancel in a sum.
func TestLiveCountsEachPool(t *testing.T) {
	var p Pool[int]
	a := p.Put(1)
	b := p.Put(2)
	if p.Live() != 2 {
		t.Fatalf("Live %d after two puts, want 2", p.Live())
	}
	p.Free(a)
	if p.Live() != 1 {
		t.Fatalf("Live %d after one free, want 1", p.Live())
	}
	p.Free(b)
	p.Free(b)
	if p.Live() != -1 {
		t.Fatalf("Live %d after a double free, want -1", p.Live())
	}
}

// TestSteadyRecyclingDoesNotGrow: a pool whose live count never passes
// four keeps four records and allocates nothing once warm.
func TestSteadyRecyclingDoesNotGrow(t *testing.T) {
	var p Pool[[3]int32]
	idx := make([]int, 0, 4)
	round := func() {
		for i := 0; i < 4; i++ {
			idx = append(idx, p.Put([3]int32{1, 2, 3}))
		}
		for _, i := range idx {
			p.Free(i)
		}
		idx = idx[:0]
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a warmed pool allocated %.0f times per round", allocs)
	}
	if len(p.recs) != 4 || p.Live() != 0 {
		t.Fatalf("pool holds %d records (%d live) for 4 concurrent, want 4 (0)", len(p.recs), p.Live())
	}
}

// TestResetKeepsStorage: a reset pool refilled to its old peak neither
// allocates nor moves its storage.
func TestResetKeepsStorage(t *testing.T) {
	var p Pool[int]
	fill := func() {
		for i := 0; i < 100; i++ {
			p.Put(i)
		}
		for i := 0; i < 100; i += 2 {
			p.Free(i)
		}
	}
	fill()
	recs, free := cap(p.recs), cap(p.free)
	allocs := testing.AllocsPerRun(10, func() {
		p.Reset()
		fill()
	})
	if allocs != 0 {
		t.Fatalf("refilling a reset pool allocated %.0f times", allocs)
	}
	if cap(p.recs) != recs || cap(p.free) != free {
		t.Fatalf("storage changed across Reset: records %d→%d, free list %d→%d",
			recs, cap(p.recs), free, cap(p.free))
	}
}

// TestNothingReachableAfterFreeOrReset: a freed record, and every
// record after Reset, live or not, is zero, so a pool of closures pins
// none of them for the garbage collector.
func TestNothingReachableAfterFreeOrReset(t *testing.T) {
	var p Pool[func()]
	for i := 0; i < 8; i++ {
		p.Put(func() {})
	}
	p.Free(5)
	if *p.At(5) != nil {
		t.Fatal("a freed record still holds its closure")
	}
	p.Reset()
	for i, fn := range p.recs[:cap(p.recs)] {
		if fn != nil {
			t.Fatalf("record %d still holds a closure after Reset", i)
		}
	}
}
