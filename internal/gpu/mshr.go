package gpu

// The allocation-free datapath plumbing: index-linked pools for the
// records that used to be closures, and the MSHR merge tables that
// used to be Go maps.
//
// Everything here is owned by exactly one Socket and driven by the
// single-threaded event engine, so there is no locking; indices are
// int32 because a socket never has 2^31 requests in flight. Free lists
// thread through the records themselves, so a warmed-up socket
// allocates nothing per access — the pools only grow (by append) when
// the number of *concurrently live* records exceeds everything seen
// before.

import (
	"repro/internal/arch"
	"repro/internal/linetab"
	"repro/internal/mem"
	"repro/internal/sim"
)

// nilIdx terminates free lists and waiter chains.
const nilIdx = int32(-1)

// ---------------------------------------------------------------------
// Warp-load transactions.
// ---------------------------------------------------------------------

// memTx is one in-flight coalesced warp load: the issuing SM and warp
// slot, and how many of its lines are still outstanding. It replaces
// the per-load `oneDone` closure (and its captured counter cell).
type memTx struct {
	sm   int32
	slot int32
	left int32
	next int32 // free-list link
}

// txPool is the per-socket free-list pool of memTx records.
type txPool struct {
	txs  []memTx
	free int32
	used int
}

func (p *txPool) init(capHint int) {
	p.txs = make([]memTx, 0, capHint)
	p.free = nilIdx
}

func (p *txPool) alloc(sm, slot, left int32) int32 {
	p.used++
	if p.free == nilIdx {
		p.txs = append(p.txs, memTx{sm: sm, slot: slot, left: left})
		return int32(len(p.txs) - 1)
	}
	i := p.free
	t := &p.txs[i]
	p.free = t.next
	t.sm, t.slot, t.left = sm, slot, left
	return i
}

func (p *txPool) release(i int32) {
	p.txs[i].next = p.free
	p.free = i
	p.used--
}

// ---------------------------------------------------------------------
// Per-line requests (L1 misses and stores in flight).
// ---------------------------------------------------------------------

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
	next int32 // free-list link
}

// reqPool is the per-socket free-list pool of lineReq records.
type reqPool struct {
	reqs []lineReq
	free int32
	used int
}

func (p *reqPool) init(capHint int) {
	p.reqs = make([]lineReq, 0, capHint)
	p.free = nilIdx
}

func (p *reqPool) alloc(line arch.LineID, home arch.SocketID, cl mem.Class, sm, tx int32) int32 {
	p.used++
	if p.free == nilIdx {
		p.reqs = append(p.reqs, lineReq{line: line, home: home, cl: cl, sm: sm, tx: tx})
		return int32(len(p.reqs) - 1)
	}
	i := p.free
	r := &p.reqs[i]
	p.free = r.next
	r.line, r.home, r.cl, r.sm, r.tx = line, home, cl, sm, tx
	return i
}

func (p *reqPool) release(i int32) {
	p.reqs[i].next = p.free
	p.free = i
	p.used--
}

// ---------------------------------------------------------------------
// Home-side reads.
// ---------------------------------------------------------------------

// homeReq carries a home-side read (serving a remote requester) through
// its DRAM fetch when the memory-side L2 caches the returned line.
// done is the response continuation handed in by the core layer, run
// with arg.
type homeReq struct {
	line arch.LineID
	done sim.Handler
	arg  int
	next int32
}

// homePool is the per-socket free-list pool of homeReq records.
type homePool struct {
	reqs []homeReq
	free int32
	used int
}

func (p *homePool) init(capHint int) {
	p.reqs = make([]homeReq, 0, capHint)
	p.free = nilIdx
}

func (p *homePool) alloc(line arch.LineID, done sim.Handler, arg int) int32 {
	p.used++
	if p.free == nilIdx {
		p.reqs = append(p.reqs, homeReq{line: line, done: done, arg: arg})
		return int32(len(p.reqs) - 1)
	}
	i := p.free
	r := &p.reqs[i]
	p.free = r.next
	r.line, r.done, r.arg = line, done, arg
	return i
}

func (p *homePool) release(i int32) {
	p.reqs[i].next = p.free
	p.free = i
	p.used--
}

// ---------------------------------------------------------------------
// Waiter chains.
// ---------------------------------------------------------------------

// waiterNode is one link of an MSHR entry's merged-waiter chain. The
// value is a pool index whose meaning depends on the table: memTx
// indices at the L1 level, lineReq indices at the L2/remote level.
type waiterNode struct {
	val  int32
	next int32
}

// waiterPool is the per-socket free-list pool of chain nodes.
type waiterPool struct {
	nodes []waiterNode
	free  int32
	used  int
}

func (p *waiterPool) init(capHint int) {
	p.nodes = make([]waiterNode, 0, capHint)
	p.free = nilIdx
}

func (p *waiterPool) alloc(val int32) int32 {
	p.used++
	if p.free == nilIdx {
		p.nodes = append(p.nodes, waiterNode{val: val, next: nilIdx})
		return int32(len(p.nodes) - 1)
	}
	i := p.free
	n := &p.nodes[i]
	p.free = n.next
	n.val, n.next = val, nilIdx
	return i
}

func (p *waiterPool) release(i int32) {
	p.nodes[i].next = p.free
	p.free = i
	p.used--
}

// push appends waiter val (a pool index) to chain w.
func (p *waiterPool) push(w *waiters, val int32) {
	n := p.alloc(val)
	if w.tail == nilIdx {
		w.head, w.tail = n, n
		return
	}
	p.nodes[w.tail].next = n
	w.tail = n
}

// ---------------------------------------------------------------------
// The MSHR table.
// ---------------------------------------------------------------------

// waiters is one pending line's FIFO chain of merged waiters: head and
// tail nodes in the socket's waiterPool, nilIdx when none merged. Chain
// order is completion order, matching the append order of the former
// []func() slices.
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

// merge registers a miss on line l by waiter val. If l is already
// pending, val joins its chain and merge reports true: the line is on
// its way. Otherwise l becomes pending with an empty chain and merge
// reports false: the caller is the primary miss and must fetch it. One
// probe walk serves both cases.
func (t *mshrTable) merge(l arch.LineID, val int32, pool *waiterPool) bool {
	i, pending := t.FindOrInsert(l, waiters{head: nilIdx, tail: nilIdx})
	if pending {
		pool.push(t.Val(i), val)
	}
	return pending
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
