package gpu

// The allocation-free datapath plumbing: the records that used to be
// closures, each kind in an internal/pool index pool, and the MSHR
// merge tables that used to be Go maps.
//
// Everything here is owned by exactly one Socket and driven by the
// single-threaded event engine, so there is no locking; indices stored
// in records are int32 because a socket never has 2^31 requests in
// flight. A warmed-up socket allocates nothing per access: the pools
// only grow when the number of *concurrently live* records exceeds
// everything seen before.

import (
	"repro/internal/arch"
	"repro/internal/linetab"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/sim"
)

// nilIdx terminates waiter chains and marks a store's absent
// transaction.
const nilIdx = int32(-1)

// memTx is one in-flight coalesced warp load: the issuing SM and warp
// slot, and how many of its lines are still outstanding. It replaces
// the per-load `oneDone` closure (and its captured counter cell).
type memTx struct {
	sm   int32
	slot int32
	left int32
}

// lineReq carries one cache line through the datapath stages: the
// resolved NUMA class and home socket (one vmm lookup per access, at
// issue), the issuing SM, and — for loads — the owning transaction.
// Stores set tx to nilIdx. It replaces the `fill`/stage closures.
type lineReq struct {
	line arch.LineID
	home arch.SocketID
	cl   mem.Class
	sm   int32
	tx   int32
}

// homeReq carries a home-side read (serving a remote requester) through
// its DRAM fetch when the memory-side L2 caches the returned line.
// done is the response continuation handed in by the core layer, run
// with arg.
type homeReq struct {
	line arch.LineID
	done sim.Handler
	arg  int
}

// waiterNode is one link of an MSHR entry's merged-waiter chain. The
// value is a pool index whose meaning depends on the table: memTx
// indices at the L1 level, lineReq indices at the L2/remote level.
type waiterNode struct {
	val  int32
	next int32
}

// ---------------------------------------------------------------------
// The MSHR table.
// ---------------------------------------------------------------------

// waiters is one pending line's FIFO chain of merged waiters: head and
// tail nodes in the socket's waiter-node pool, nilIdx when none merged.
// Chain order is completion order, matching the append order of the
// former []func() slices.
type waiters struct {
	head int32
	tail int32
}

// mshrTable maps pending LineIDs to waiter chains. The probing, growth
// and backward-shift deletion are linetab's; lookup, insertion and
// deletion allocate nothing outside its amortized doubling, and nothing
// iterates the table, so hash order can never leak into simulation
// behaviour.
type mshrTable struct {
	linetab.Table[arch.LineID, waiters]
}

// merge registers a miss on line l by waiter val (a pool index). If l
// is already pending, val joins the tail of its chain, in a node taken
// from nodes, and merge reports true: the line is on its way. Otherwise
// l becomes pending with an empty chain and merge reports false: the
// caller is the primary miss and must fetch it. One probe walk serves
// both cases.
func (t *mshrTable) merge(l arch.LineID, val int32, nodes *pool.Pool[waiterNode]) bool {
	i, pending := t.FindOrInsert(l, waiters{head: nilIdx, tail: nilIdx})
	if !pending {
		return false
	}
	w := t.Val(i)
	n := int32(nodes.Put(waiterNode{val: val, next: nilIdx}))
	if w.tail == nilIdx {
		w.head = n
	} else {
		nodes.At(int(w.tail)).next = n
	}
	w.tail = n
	return true
}

// complete removes pending line l and returns its waiter chain head
// (nilIdx when no waiter merged). The caller owns the chain and must
// release its nodes.
func (t *mshrTable) complete(l arch.LineID) int32 {
	w, ok := t.Delete(l)
	if !ok {
		panic("gpu: mshr delete of absent line")
	}
	return w.head
}
