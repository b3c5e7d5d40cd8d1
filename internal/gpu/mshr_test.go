package gpu

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

// chainOf drains entry key's waiter chain (via delete) into a slice.
func chainOf(t *mshrTable, pool *waiterPool, key arch.LineID) []int32 {
	var out []int32
	for n := t.delete(key); n != nilIdx; {
		node := pool.nodes[n]
		pool.release(n)
		out = append(out, node.val)
		n = node.next
	}
	return out
}

func TestMSHRTableBasics(t *testing.T) {
	var tab mshrTable
	var pool waiterPool
	tab.init(8)
	pool.init(8)

	if _, ok := tab.find(42); ok {
		t.Fatal("empty table must not find")
	}
	tab.insert(42)
	if tab.len() != 1 {
		t.Fatalf("len %d", tab.len())
	}
	e, ok := tab.find(42)
	if !ok {
		t.Fatal("inserted key not found")
	}
	tab.appendWaiter(e, 7, &pool)
	e, _ = tab.find(42)
	tab.appendWaiter(e, 9, &pool)

	// Line 0 must be a usable key (the model's address space starts
	// there); regression for sentinel-based designs.
	tab.insert(0)
	if _, ok := tab.find(0); !ok {
		t.Fatal("LineID 0 must be a valid key")
	}

	got := chainOf(&tab, &pool, 42)
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("waiter chain %v, want [7 9] (FIFO)", got)
	}
	if tab.len() != 1 {
		t.Fatalf("len after delete %d, want 1", tab.len())
	}
	if pool.used != 0 {
		t.Fatalf("waiter nodes leaked: %d", pool.used)
	}
	if got := chainOf(&tab, &pool, 0); len(got) != 0 {
		t.Fatalf("chain of waiterless entry %v, want empty", got)
	}
}

func TestMSHRTableDeleteAbsentPanics(t *testing.T) {
	var tab mshrTable
	tab.init(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.delete(5)
}

// TestMSHRTableCollisionClusters forces many keys into one probe
// cluster and deletes from the middle, exercising the backward-shift
// path that keeps probing correct without tombstones.
func TestMSHRTableCollisionClusters(t *testing.T) {
	var tab mshrTable
	var pool waiterPool
	tab.init(8)
	pool.init(8)

	// With Fibonacci hashing we cannot easily pick same-slot keys by
	// hand, so force clustering by filling past half load repeatedly
	// and deleting in varying orders.
	keys := make([]arch.LineID, 0, 64)
	for i := 0; i < 64; i++ {
		k := arch.LineID(i * 977)
		keys = append(keys, k)
		tab.insert(k)
		e, ok := tab.find(k)
		if !ok {
			t.Fatalf("key %d lost right after insert", k)
		}
		tab.appendWaiter(e, int32(i), &pool)
	}
	// Delete every third key, then verify the rest still resolve with
	// their chains intact.
	for i := 0; i < 64; i += 3 {
		got := chainOf(&tab, &pool, keys[i])
		if len(got) != 1 || got[0] != int32(i) {
			t.Fatalf("key %d chain %v, want [%d]", keys[i], got, i)
		}
	}
	for i := 0; i < 64; i++ {
		_, ok := tab.find(keys[i])
		if want := i%3 != 0; ok != want {
			t.Fatalf("key %d present=%v want %v after backshift deletes", keys[i], ok, want)
		}
	}
}

// TestMSHRTableAgainstMapReference drives the open-addressed table and
// a Go map with the same randomized workload and compares them at every
// step — insert, merge, delete with chain drain, across growth.
func TestMSHRTableAgainstMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tab mshrTable
	var pool waiterPool
	tab.init(8)
	pool.init(8)
	ref := map[arch.LineID][]int32{}

	keySpace := func() arch.LineID { return arch.LineID(rng.Intn(512) * 31) }
	for step := 0; step < 20000; step++ {
		k := keySpace()
		switch rng.Intn(3) {
		case 0: // primary insert or merge
			if ws, ok := ref[k]; ok {
				e, tok := tab.find(k)
				if !tok {
					t.Fatalf("step %d: key %d in ref but not table", step, k)
				}
				v := int32(step)
				tab.appendWaiter(e, v, &pool)
				ref[k] = append(ws, v)
			} else {
				if _, tok := tab.find(k); tok {
					t.Fatalf("step %d: key %d in table but not ref", step, k)
				}
				tab.insert(k)
				ref[k] = []int32{}
			}
		case 1: // complete a pending line
			if ws, ok := ref[k]; ok {
				got := chainOf(&tab, &pool, k)
				if len(got) != len(ws) {
					t.Fatalf("step %d: key %d chain %v, want %v", step, k, got, ws)
				}
				for i := range ws {
					if got[i] != ws[i] {
						t.Fatalf("step %d: key %d chain %v, want %v", step, k, got, ws)
					}
				}
				delete(ref, k)
			}
		case 2: // presence probe
			_, tok := tab.find(k)
			_, rok := ref[k]
			if tok != rok {
				t.Fatalf("step %d: key %d present=%v ref=%v", step, k, tok, rok)
			}
		}
		if tab.len() != len(ref) {
			t.Fatalf("step %d: len %d, ref %d", step, tab.len(), len(ref))
		}
	}
	// Drain everything; pools must return to empty.
	for k := range ref {
		chainOf(&tab, &pool, k)
	}
	if tab.len() != 0 || pool.used != 0 {
		t.Fatalf("final len=%d poolUsed=%d, want 0/0", tab.len(), pool.used)
	}
}

func TestPoolsRecycleWithoutGrowth(t *testing.T) {
	var txs txPool
	txs.init(4)
	var idx []int32
	for round := 0; round < 100; round++ {
		for i := 0; i < 4; i++ {
			idx = append(idx, txs.alloc(1, 2, 3))
		}
		for _, i := range idx {
			txs.release(i)
		}
		idx = idx[:0]
	}
	if len(txs.txs) != 4 {
		t.Fatalf("pool grew to %d records for 4 concurrent, free-list reuse broken", len(txs.txs))
	}
	if txs.used != 0 {
		t.Fatalf("used %d, want 0", txs.used)
	}
}

func TestHomePoolClearsCallbacks(t *testing.T) {
	var homes homePool
	homes.init(2)
	fired := -1
	i := homes.alloc(1, func(_ sim.Time, arg int) { fired = arg }, 42)
	homes.reqs[i].done(0, homes.reqs[i].arg)
	homes.release(i)
	if fired != 42 {
		t.Fatalf("callback saw arg %d, want 42", fired)
	}
	if homes.reqs[i].done != nil {
		t.Fatal("release must clear the callback so the pool cannot pin it")
	}
}
