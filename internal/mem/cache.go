// Package mem models the GPU memory system state: set-associative
// caches with NUMA way-class partitioning (Figure 7 of Milic et al.)
// and the per-socket DRAM (HBM) behind them.
//
// Caches here are pure state machines — tags, LRU, dirty bits, way
// partitions. Timing (latencies, bandwidth, MSHR merging) lives in the
// controllers of the gpu package, which own the event scheduling.
package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/stats"
)

// Class labels a cache line by the NUMA zone of its home memory as seen
// by the caching GPU: local lines live in this socket's DRAM, remote
// lines in another socket's. The NUMA-aware policy partitions capacity
// between these two classes.
type Class int

const (
	// ClassLocal marks data homed in the caching GPU's own DRAM.
	ClassLocal Class = iota
	// ClassRemote marks data homed in another GPU socket's DRAM.
	ClassRemote
	numClasses
)

func (c Class) String() string {
	if c == ClassLocal {
		return "local"
	}
	return "remote"
}

// Victim describes a line evicted by an insertion or invalidation.
type Victim struct {
	Line  arch.LineID
	Dirty bool
	Class Class
}

// Cache is a set-associative, LRU cache with optional way partitioning
// between local and remote classes. Lookups consult all ways regardless
// of partition (the paper's "lazy eviction" design); the partition only
// steers victim selection on fills.
//
// The ways are stored as two parallel arrays, set-major: a tag array
// probed alone (line+1, 0 for an invalid way) and an LRU word per way
// (stamp<<2 | class<<1 | dirty, 0 for an invalid way). A 16-way probe
// reads 128 bytes of tags instead of 16 whole line records, and a
// victim search reads only the LRU words of the class's way group.
type Cache struct {
	sets      int
	assoc     int
	setMask   uint64
	tags      []uint64 // line+1 per way; 0 = invalid
	lru       []uint64 // stamp<<2 | class<<1 | dirty per way; 0 = invalid
	stamp     uint64
	ways      [numClasses]int // current partition, sums to assoc
	partition bool            // false: classes share all ways
	dirty     []Victim        // InvalidateAll's result, reused per call

	// Stats per class.
	Hit   [numClasses]stats.HitRate
	Fills [numClasses]stats.Counter
	Evic  [numClasses]stats.Counter
}

// The low bits of an LRU word; the stamp sits above them. Stamps start
// at 1 and never repeat, so a valid way's word is never 0 and comparing
// whole words orders ways by stamp.
const (
	flagDirty  = 1
	flagRemote = 2 // class<<1
	flagMask   = flagDirty | flagRemote
	stampShift = 2
)

// lruWord packs the current stamp with a way's class and dirty bit.
func (c *Cache) lruWord(cl Class, dirty bool) uint64 {
	w := c.stamp<<stampShift | uint64(cl)<<1
	if dirty {
		w |= flagDirty
	}
	return w
}

// wayVictim describes the valid way holding tag with LRU word lru.
func wayVictim(tag, lru uint64) Victim {
	return Victim{Line: arch.LineID(tag - 1), Dirty: lru&flagDirty != 0, Class: Class(lru&flagRemote) >> 1}
}

// NewCache builds a cache of the given total size in bytes and
// associativity. The set count must come out a power of two. The cache
// starts unpartitioned.
func NewCache(sizeBytes, assoc int) *Cache {
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
	c := &Cache{
		sets:    sets,
		assoc:   assoc,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*assoc),
		lru:     make([]uint64, sets*assoc),
	}
	c.Reset()
	return c
}

// Reset returns the cache to the state NewCache built: every way
// invalid, the stamp and statistics at zero, and no partition. It
// keeps the arrays.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.lru)
	c.stamp = 0
	c.ClearPartition()
	c.Hit = [numClasses]stats.HitRate{}
	c.Fills = [numClasses]stats.Counter{}
	c.Evic = [numClasses]stats.Counter{}
}

// Sets and Assoc report the geometry.
func (c *Cache) Sets() int  { return c.sets }
func (c *Cache) Assoc() int { return c.assoc }

// Partitioned reports whether way partitioning is active.
func (c *Cache) Partitioned() bool { return c.partition }

// Ways reports the ways currently assigned to class (meaningful only
// when partitioned).
func (c *Cache) Ways(cl Class) int { return c.ways[cl] }

// SetPartition enables way partitioning with the given split. Both
// classes must keep at least one way (the paper's starvation guard) and
// the split must cover the full associativity. Existing contents are
// not evicted (lazy eviction).
func (c *Cache) SetPartition(local, remote int) error {
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
func (c *Cache) ClearPartition() {
	c.partition = false
	c.ways[ClassLocal] = c.assoc
	c.ways[ClassRemote] = 0
}

// ShiftWays moves one way from donor to receiver, respecting the
// one-way minimum. It reports whether a way moved.
func (c *Cache) ShiftWays(from, to Class) bool {
	if !c.partition || c.ways[from] <= 1 {
		return false
	}
	c.ways[from]--
	c.ways[to]++
	return true
}

// set returns the index of l's set's first way and l's tag.
func (c *Cache) set(l arch.LineID) (base int, tag uint64) {
	return int(uint64(l)&c.setMask) * c.assoc, uint64(l) + 1
}

// find returns the way holding l, or -1.
func (c *Cache) find(l arch.LineID) int {
	base, tag := c.set(l)
	for i, t := range c.tags[base : base+c.assoc] {
		if t == tag {
			return base + i
		}
	}
	return -1
}

// Lookup probes for l, updating LRU and hit statistics. It reports
// whether the line was present. Counted against class cl (the class the
// requester resolved for the address).
func (c *Cache) Lookup(l arch.LineID, cl Class) bool {
	if w := c.find(l); w >= 0 {
		c.stamp++
		c.lru[w] = c.stamp<<stampShift | c.lru[w]&flagMask
		c.Hit[cl].Hits.Inc()
		return true
	}
	c.Hit[cl].Misses.Inc()
	return false
}

// Peek reports presence without touching LRU or statistics.
func (c *Cache) Peek(l arch.LineID) bool { return c.find(l) >= 0 }

// MarkDirty sets the dirty bit if the line is present, reporting whether
// it was. Used by write hits on write-back caches.
func (c *Cache) MarkDirty(l arch.LineID) bool {
	w := c.find(l)
	if w < 0 {
		return false
	}
	c.stamp++
	c.lru[w] = c.stamp<<stampShift | c.lru[w]&flagMask | flagDirty
	return true
}

// Fill inserts line l of class cl, dirty if requested. If the line is
// already present it refreshes LRU (and ORs the dirty bit). Otherwise a
// victim is chosen — within cl's way group when partitioned, globally
// when not: the group's first invalid way, else its first least
// recently used — and returned if it held valid data. A tag-match pass
// over the set looks for the line, then a victim pass reads only the
// group's LRU words, where an invalid way's 0 ranks first.
func (c *Cache) Fill(l arch.LineID, cl Class, dirty bool) (Victim, bool) {
	base, tag := c.set(l)
	c.stamp++
	for i, t := range c.tags[base : base+c.assoc] {
		if t == tag {
			w := base + i
			c.lru[w] = c.lruWord(cl, dirty) | c.lru[w]&flagDirty
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
	// The first minimum is the group's first invalid way, or else its
	// least recently used one.
	group := c.lru[base+lo : base+hi]
	victim, oldest := 0, group[0]
	for i, u := range group {
		if u < oldest {
			victim, oldest = i, u
			if u == 0 {
				break
			}
		}
	}

	w := base + lo + victim
	var out Victim
	had := false
	if t := c.tags[w]; t != 0 {
		out, had = wayVictim(t, c.lru[w]), true
		c.Evic[out.Class].Inc()
	}
	c.tags[w] = tag
	c.lru[w] = c.lruWord(cl, dirty)
	return out, had
}

// InvalidateAll invalidates every line for which keep returns false and
// returns the dirty lines among them (so the caller can route
// writebacks). A nil keep invalidates everything. The returned slice
// is the cache's own buffer, valid until the next call.
func (c *Cache) InvalidateAll(keep func(cl Class) bool) []Victim {
	dirty := c.dirty[:0]
	for w, t := range c.tags {
		if t == 0 {
			continue
		}
		v := wayVictim(t, c.lru[w])
		if keep != nil && keep(v.Class) {
			continue
		}
		if v.Dirty {
			dirty = append(dirty, v)
		}
		c.tags[w], c.lru[w] = 0, 0
	}
	c.dirty = dirty
	return dirty
}

// Invalidate drops a single line if present, returning its victim info.
func (c *Cache) Invalidate(l arch.LineID) (Victim, bool) {
	w := c.find(l)
	if w < 0 {
		return Victim{}, false
	}
	v := wayVictim(c.tags[w], c.lru[w])
	c.tags[w], c.lru[w] = 0, 0
	return v, true
}

// CountValid reports how many valid lines of each class are resident.
func (c *Cache) CountValid() (local, remote int) {
	for w, t := range c.tags {
		if t == 0 {
			continue
		}
		if c.lru[w]&flagRemote == 0 {
			local++
		} else {
			remote++
		}
	}
	return
}
