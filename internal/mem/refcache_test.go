package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/stats"
)

type refLine struct {
	tag   arch.LineID
	valid bool
	dirty bool
	class Class
	used  uint64 // LRU stamp
}

// refCache is the array-of-structs Cache this package shipped before
// the packed layout: one 32-byte line record per way, a two-pass Fill
// (find the line, then pick the victim). It is kept here, and only
// here, as the executable specification the packed Cache must match
// step for step (TestPackedCacheMatchesReference).
type refCache struct {
	sets      int
	assoc     int
	setMask   uint64
	lines     []refLine // sets × assoc, set-major
	stamp     uint64
	ways      [numClasses]int // current partition, sums to assoc
	partition bool            // false: classes share all ways

	// Stats per class.
	Hit   [numClasses]stats.HitRate
	Fills [numClasses]stats.Counter
	Evic  [numClasses]stats.Counter
}

func newRefCache(sizeBytes, assoc int) *refCache {
	if assoc < 1 {
		panic("mem: associativity must be >= 1")
	}
	nLines := sizeBytes / arch.LineSize
	sets := nLines / assoc
	if sets == 0 {
		sets = 1
	}
	if bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("mem: set count %d is not a power of two (size %dB assoc %d)", sets, sizeBytes, assoc))
	}
	c := &refCache{
		sets:    sets,
		assoc:   assoc,
		setMask: uint64(sets - 1),
		lines:   make([]refLine, sets*assoc),
	}
	c.ways[ClassLocal] = assoc
	return c
}

// Sets and Assoc report the geometry.
func (c *refCache) Sets() int  { return c.sets }
func (c *refCache) Assoc() int { return c.assoc }

// Partitioned reports whether way partitioning is active.
func (c *refCache) Partitioned() bool { return c.partition }

// Ways reports the ways currently assigned to class (meaningful only
// when partitioned).
func (c *refCache) Ways(cl Class) int { return c.ways[cl] }

// SetPartition enables way partitioning with the given split. Both
// classes must keep at least one way (the paper's starvation guard) and
// the split must cover the full associativity. Existing contents are
// not evicted (lazy eviction).
func (c *refCache) SetPartition(local, remote int) error {
	if local < 1 || remote < 1 {
		return fmt.Errorf("mem: each class needs >= 1 way (got local=%d remote=%d)", local, remote)
	}
	if local+remote != c.assoc {
		return fmt.Errorf("mem: partition %d+%d must equal associativity %d", local, remote, c.assoc)
	}
	c.partition = true
	c.ways[ClassLocal] = local
	c.ways[ClassRemote] = remote
	return nil
}

// ClearPartition disables partitioning; all ways become shared.
func (c *refCache) ClearPartition() {
	c.partition = false
	c.ways[ClassLocal] = c.assoc
	c.ways[ClassRemote] = 0
}

// ShiftWays moves one way from donor to receiver, respecting the
// one-way minimum. It reports whether a way moved.
func (c *refCache) ShiftWays(from, to Class) bool {
	if !c.partition || c.ways[from] <= 1 {
		return false
	}
	c.ways[from]--
	c.ways[to]++
	return true
}

func (c *refCache) set(l arch.LineID) []refLine {
	idx := uint64(l) & c.setMask
	return c.lines[idx*uint64(c.assoc) : (idx+1)*uint64(c.assoc)]
}

// Lookup probes for l, updating LRU and hit statistics. It reports
// whether the line was present. Counted against class cl (the class the
// requester resolved for the address).
func (c *refCache) Lookup(l arch.LineID, cl Class) bool {
	set := c.set(l)
	for i := range set {
		if set[i].valid && set[i].tag == l {
			c.stamp++
			set[i].used = c.stamp
			c.Hit[cl].Hits.Inc()
			return true
		}
	}
	c.Hit[cl].Misses.Inc()
	return false
}

// Peek reports presence without touching LRU or statistics.
func (c *refCache) Peek(l arch.LineID) bool {
	set := c.set(l)
	for i := range set {
		if set[i].valid && set[i].tag == l {
			return true
		}
	}
	return false
}

// MarkDirty sets the dirty bit if the line is present, reporting whether
// it was. Used by write hits on write-back caches.
func (c *refCache) MarkDirty(l arch.LineID) bool {
	set := c.set(l)
	for i := range set {
		if set[i].valid && set[i].tag == l {
			set[i].dirty = true
			c.stamp++
			set[i].used = c.stamp
			return true
		}
	}
	return false
}

// Fill inserts line l of class cl, dirty if requested. If the line is
// already present it refreshes LRU (and ORs the dirty bit). Otherwise a
// victim is chosen — within cl's way group when partitioned, globally
// by LRU when not — and returned if it held valid data.
func (c *refCache) Fill(l arch.LineID, cl Class, dirty bool) (Victim, bool) {
	set := c.set(l)
	c.stamp++
	for i := range set {
		if set[i].valid && set[i].tag == l {
			set[i].used = c.stamp
			set[i].dirty = set[i].dirty || dirty
			set[i].class = cl
			return Victim{}, false
		}
	}
	c.Fills[cl].Inc()

	lo, hi := 0, c.assoc
	if c.partition {
		// Class way groups: local owns ways [0, waysLocal), remote the
		// rest. Contents may disagree with the group after repartition;
		// that is the intended lazy eviction.
		if cl == ClassLocal {
			hi = c.ways[ClassLocal]
		} else {
			lo = c.ways[ClassLocal]
		}
	}
	victim := lo
	for i := lo; i < hi; i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	var out Victim
	had := false
	if set[victim].valid {
		out = Victim{Line: set[victim].tag, Dirty: set[victim].dirty, Class: set[victim].class}
		had = true
		c.Evic[set[victim].class].Inc()
	}
	set[victim] = refLine{tag: l, valid: true, dirty: dirty, class: cl, used: c.stamp}
	return out, had
}

// InvalidateAll invalidates every line for which keep returns false and
// returns the dirty lines among them (so the caller can route
// writebacks). A nil keep invalidates everything.
func (c *refCache) InvalidateAll(keep func(cl Class) bool) []Victim {
	var dirty []Victim
	for i := range c.lines {
		ln := &c.lines[i]
		if !ln.valid {
			continue
		}
		if keep != nil && keep(ln.class) {
			continue
		}
		if ln.dirty {
			dirty = append(dirty, Victim{Line: ln.tag, Dirty: true, Class: ln.class})
		}
		ln.valid = false
		ln.dirty = false
	}
	return dirty
}

// Invalidate drops a single line if present, returning its victim info.
func (c *refCache) Invalidate(l arch.LineID) (Victim, bool) {
	set := c.set(l)
	for i := range set {
		if set[i].valid && set[i].tag == l {
			v := Victim{Line: set[i].tag, Dirty: set[i].dirty, Class: set[i].class}
			set[i].valid = false
			set[i].dirty = false
			return v, true
		}
	}
	return Victim{}, false
}

// CountValid reports how many valid lines of each class are resident.
func (c *refCache) CountValid() (local, remote int) {
	for i := range c.lines {
		if !c.lines[i].valid {
			continue
		}
		if c.lines[i].class == ClassLocal {
			local++
		} else {
			remote++
		}
	}
	return
}
