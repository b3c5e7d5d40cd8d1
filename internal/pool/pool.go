// Package pool is the index-addressed record pool under the simulator's
// in-flight state: the gpu datapath's warp loads, line requests, MSHR
// waiter nodes and home-side reads, core's remote round trips, the
// fabric's routed messages and the engine's queued closures. A record
// is named by a small integer index, which rides an event's argument
// through the engine in place of a pointer or a closure.
//
// Freed indices are reused last in, first out, and Reset starts again
// at index 0, so a pool hands out the same indices in the same order
// whether it is new or reset. A warmed pool allocates nothing: its
// storage grows (by append) only when more records are live at once
// than ever before, and Reset keeps it.
package pool

// Pool holds records of type T. Its zero value is an empty pool ready
// to use. A Pool is not safe for concurrent use.
type Pool[T any] struct {
	recs []T
	free []int32 // freed indices, the last freed on top
}

// Put stores v and returns its index: the index freed last, or a new
// one past every index in use.
func (p *Pool[T]) Put(v T) int {
	if n := len(p.free) - 1; n >= 0 {
		i := p.free[n]
		p.free = p.free[:n]
		p.recs[i] = v
		return int(i)
	}
	p.recs = append(p.recs, v)
	return len(p.recs) - 1
}

// At returns record i, which stays valid until i is freed or the pool
// grows.
func (p *Pool[T]) At(i int) *T { return &p.recs[i] }

// Free releases index i. Its record is zeroed, so a freed record keeps
// nothing reachable.
func (p *Pool[T]) Free(i int) {
	var zero T
	p.recs[i] = zero
	p.free = append(p.free, int32(i))
}

// Live reports how many records are in use: put and not yet freed. A
// double free makes it read one less.
func (p *Pool[T]) Live() int { return len(p.recs) - len(p.free) }

// Reset frees every record, zeroing the live ones, and keeps the
// storage; the next Put returns index 0.
func (p *Pool[T]) Reset() {
	clear(p.recs)
	p.recs, p.free = p.recs[:0], p.free[:0]
}
