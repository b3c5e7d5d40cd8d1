// Package linetab is the open-addressed hash table behind the
// datapath's per-access lookups: the gpu package's MSHR merge tables
// (pending line → waiter chain) and vmm's first-touch page table
// (page → home socket).
//
// Keys are stored as key+1 in a packed []uint64 that probes read
// alone (0 marks an empty slot, so key 0 stays usable); values sit in
// a parallel slice and are touched only at the slot a probe stops on.
// Probing is linear from a Fibonacci hash of the stored key, the table
// doubles before an insertion would pass 3/4 load, and deletion shifts
// the following cluster back instead of leaving tombstones. Nothing
// order-dependent may range over a table (All exists for order-free
// sums), so the probe layout can never leak into simulation results.
package linetab

import (
	"iter"
	"math/bits"
)

// fibMul is the 64-bit Fibonacci-hashing multiplier. The table indexes
// by the product's top bits, which are well mixed even for the
// sequential lines and pages of streaming workloads.
const fibMul = 0x9E3779B97F4A7C15

// minSlots is the capacity of a table's first allocation.
const minSlots = 8

// Table maps keys to values. Its zero value is an empty table ready to
// use; Init only presizes it. A Table is not safe for concurrent use.
type Table[K ~uint64, V any] struct {
	keys  []uint64 // key+1 per slot; 0 = empty
	vals  []V      // value per slot; meaningful only where keys != 0
	shift uint     // 64 - log2(len(keys))
	n     int
}

// Init empties t and allocates slots slots, rounded up to a power of
// two and at least 8; the table holds 3/4 of that before it grows.
func (t *Table[K, V]) Init(slots int) {
	c := minSlots
	for c < slots {
		c <<= 1
	}
	t.alloc(c)
	t.n = 0
}

// Clear removes every key and keeps the slots, so a table refilled to
// its old size does not grow again.
func (t *Table[K, V]) Clear() {
	clear(t.keys)
	clear(t.vals)
	t.n = 0
}

func (t *Table[K, V]) alloc(slots int) {
	t.keys = make([]uint64, slots)
	t.vals = make([]V, slots)
	t.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// slot is the home slot of stored key tag.
func (t *Table[K, V]) slot(tag uint64) int {
	return int((tag * fibMul) >> t.shift)
}

// Len reports how many keys are present.
func (t *Table[K, V]) Len() int { return t.n }

// Find returns the slot holding k, if present. The slot stays valid
// until the next insertion or deletion.
func (t *Table[K, V]) Find(k K) (int, bool) {
	if t.n == 0 {
		return 0, false
	}
	tag := uint64(k) + 1
	mask := len(t.keys) - 1
	for i := t.slot(tag); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case tag:
			return i, true
		case 0:
			return 0, false
		}
	}
}

// Get returns k's value, if present.
func (t *Table[K, V]) Get(k K) (V, bool) {
	if i, ok := t.Find(k); ok {
		return t.vals[i], true
	}
	var zero V
	return zero, false
}

// Val returns a pointer to the value in slot i (from Find or
// FindOrInsert), valid until the next insertion or deletion.
func (t *Table[K, V]) Val(i int) *V { return &t.vals[i] }

// FindOrInsert returns the slot holding k and true if k is present;
// otherwise it inserts k with value v and returns the new slot and
// false. One probe walk serves both the lookup and the insertion.
func (t *Table[K, V]) FindOrInsert(k K, v V) (int, bool) {
	// Grow first: the probe below must run on the final array, since
	// growing moves every key.
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
	}
	tag := uint64(k) + 1
	mask := len(t.keys) - 1
	for i := t.slot(tag); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case tag:
			return i, true
		case 0:
			t.keys[i] = tag
			t.vals[i] = v
			t.n++
			return i, false
		}
	}
}

// Put maps k to v, overwriting any existing value.
func (t *Table[K, V]) Put(k K, v V) {
	i, _ := t.FindOrInsert(k, v)
	t.vals[i] = v
}

// Delete removes k and returns its value, if present. The probe
// cluster after k's slot shifts back over the hole, so later probes
// never meet a tombstone.
func (t *Table[K, V]) Delete(k K) (V, bool) {
	i, ok := t.Find(k)
	if !ok {
		var zero V
		return zero, false
	}
	v := t.vals[i]
	mask := len(t.keys) - 1
	for j := (i + 1) & mask; t.keys[j] != 0; j = (j + 1) & mask {
		// The key in slot j may fill the hole at i only if its home
		// slot is cyclically outside (i, j]: moving it anywhere else
		// would put it before the start of its own probe walk.
		if (j-t.slot(t.keys[j]))&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	var zero V
	t.keys[i], t.vals[i] = 0, zero
	t.n--
	return v, true
}

// All yields every key and value in slot order, which depends on the
// probe layout: callers must only compute order-free results from it.
func (t *Table[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for i, tag := range t.keys {
			if tag != 0 && !yield(K(tag-1), t.vals[i]) {
				return
			}
		}
	}
}

func (t *Table[K, V]) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.alloc(max(minSlots, 2*len(oldKeys)))
	mask := len(t.keys) - 1
	for i, tag := range oldKeys {
		if tag == 0 {
			continue
		}
		j := t.slot(tag)
		for t.keys[j] != 0 {
			j = (j + 1) & mask
		}
		t.keys[j], t.vals[j] = tag, oldVals[i]
	}
}
