package gpu

// The allocation-free datapath plumbing: index-linked pools for the
// records that used to be closures, and an open-addressed hash table
// for the MSHR merge structures that used to be Go maps.
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

// ---------------------------------------------------------------------
// The MSHR table.
// ---------------------------------------------------------------------

// mshrEntry is one pending line: its key and the FIFO chain of merged
// waiters (chain order is completion order, matching the append order
// of the former []func() slices).
type mshrEntry struct {
	key  arch.LineID
	head int32
	tail int32
	used bool
}

// mshrTable maps pending LineIDs to waiter chains: open addressing with
// linear probing and backward-shift deletion (no tombstones), doubling
// at 3/4 load. Lookup, insert and delete are allocation-free except the
// amortized table doubling; nothing iterates the table, so hash order
// can never leak into simulation behaviour.
//
// vmm's pageTable mirrors this probe/grow core (minus deletion); a fix
// to either table's probing or resize logic almost certainly applies to
// both.
type mshrTable struct {
	entries []mshrEntry
	shift   uint // 64 - log2(len(entries))
	n       int
}

// fibMul is the 64-bit Fibonacci-hashing multiplier; the table indexes
// by the product's *top* bits, which are well mixed even for the
// sequential LineIDs that streaming workloads produce.
const fibMul = 0x9E3779B97F4A7C15

func (t *mshrTable) init(capacity int) {
	c := 8
	for c < capacity {
		c <<= 1
	}
	t.entries = make([]mshrEntry, c)
	t.shift = uint(64 - log2(c))
	t.n = 0
}

func log2(pow2 int) int {
	b := 0
	for pow2 > 1 {
		pow2 >>= 1
		b++
	}
	return b
}

func (t *mshrTable) slotOf(key arch.LineID) int {
	return int((uint64(key) * fibMul) >> t.shift)
}

// len reports how many lines are pending.
func (t *mshrTable) len() int { return t.n }

// find returns the entry index holding key, if present.
func (t *mshrTable) find(key arch.LineID) (int, bool) {
	mask := len(t.entries) - 1
	for i := t.slotOf(key); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if !e.used {
			return 0, false
		}
		if e.key == key {
			return i, true
		}
	}
}

// insert adds key with an empty waiter chain. The caller must know key
// is absent (a primary miss after a failed find).
func (t *mshrTable) insert(key arch.LineID) {
	if 4*(t.n+1) > 3*len(t.entries) {
		t.grow()
	}
	mask := len(t.entries) - 1
	i := t.slotOf(key)
	for t.entries[i].used {
		i = (i + 1) & mask
	}
	t.entries[i] = mshrEntry{key: key, head: nilIdx, tail: nilIdx, used: true}
	t.n++
}

func (t *mshrTable) grow() {
	old := t.entries
	t.entries = make([]mshrEntry, 2*len(old))
	t.shift--
	mask := len(t.entries) - 1
	for i := range old {
		if !old[i].used {
			continue
		}
		j := t.slotOf(old[i].key)
		for t.entries[j].used {
			j = (j + 1) & mask
		}
		t.entries[j] = old[i]
	}
}

// appendWaiter links a waiter (pool index val) onto entry e's chain.
func (t *mshrTable) appendWaiter(e int, val int32, pool *waiterPool) {
	n := pool.alloc(val)
	ent := &t.entries[e]
	if ent.tail == nilIdx {
		ent.head, ent.tail = n, n
		return
	}
	pool.nodes[ent.tail].next = n
	ent.tail = n
}

// delete removes key and returns its waiter chain head (nilIdx when no
// waiter merged). The caller owns the chain and must release its nodes.
// Deletion backward-shifts the following probe cluster, so no tombstone
// ever degrades probing.
func (t *mshrTable) delete(key arch.LineID) int32 {
	i, ok := t.find(key)
	if !ok {
		panic("gpu: mshr delete of absent line")
	}
	head := t.entries[i].head
	mask := len(t.entries) - 1
	j := i
	for {
		t.entries[i].used = false
		for {
			j = (j + 1) & mask
			if !t.entries[j].used {
				t.n--
				return head
			}
			h := t.slotOf(t.entries[j].key)
			// Entry j may fill the hole at i only if its natural slot h
			// is cyclically outside (i, j] — otherwise the move would
			// strand it before its probe start.
			if (j-h)&mask >= (j-i)&mask {
				break
			}
		}
		t.entries[i] = t.entries[j]
		i = j
	}
}
