package gpu

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/pool"
	"repro/internal/sim"
)

// chainOf drains entry key's waiter chain (via complete) into a slice.
func chainOf(t *mshrTable, nodes *pool.Pool[waiterNode], key arch.LineID) []int32 {
	var out []int32
	for n := t.complete(key); n != nilIdx; {
		node := *nodes.At(int(n))
		nodes.Free(int(n))
		out = append(out, node.val)
		n = node.next
	}
	return out
}

func TestMSHRTableBasics(t *testing.T) {
	var tab mshrTable
	var nodes pool.Pool[waiterNode]
	tab.Init(8)

	if _, ok := tab.Find(42); ok {
		t.Fatal("empty table must not find")
	}
	if tab.merge(42, 5, &nodes) {
		t.Fatal("first miss on a line must be the primary, not a merge")
	}
	if tab.Len() != 1 || nodes.Live() != 0 {
		t.Fatalf("len %d, waiter nodes %d after a primary miss; want 1, 0", tab.Len(), nodes.Live())
	}
	if !tab.merge(42, 7, &nodes) || !tab.merge(42, 9, &nodes) {
		t.Fatal("later misses on a pending line must merge")
	}

	// Line 0 must be a usable key (the model's address space starts
	// there); regression for sentinel-based designs.
	if tab.merge(0, 1, &nodes) {
		t.Fatal("LineID 0 merged onto a line that is not pending")
	}
	if _, ok := tab.Find(0); !ok {
		t.Fatal("LineID 0 must be a valid key")
	}

	got := chainOf(&tab, &nodes, 42)
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("waiter chain %v, want [7 9] (FIFO)", got)
	}
	if tab.Len() != 1 {
		t.Fatalf("len after complete %d, want 1", tab.Len())
	}
	if nodes.Live() != 0 {
		t.Fatalf("waiter nodes leaked: %d", nodes.Live())
	}
	if got := chainOf(&tab, &nodes, 0); len(got) != 0 {
		t.Fatalf("chain of waiterless entry %v, want empty", got)
	}
}

func TestMSHRTableDeleteAbsentPanics(t *testing.T) {
	var tab mshrTable
	tab.Init(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.complete(5)
}

// TestMSHRTableCollisionClusters forces many keys into one probe
// cluster and deletes from the middle, exercising the backward-shift
// path that keeps probing correct without tombstones.
func TestMSHRTableCollisionClusters(t *testing.T) {
	var tab mshrTable
	var nodes pool.Pool[waiterNode]
	tab.Init(8)

	// With Fibonacci hashing we cannot easily pick same-slot keys by
	// hand, so force clustering by filling past half load repeatedly
	// and deleting in varying orders.
	keys := make([]arch.LineID, 0, 64)
	for i := 0; i < 64; i++ {
		k := arch.LineID(i * 977)
		keys = append(keys, k)
		tab.merge(k, -1, &nodes)
		if !tab.merge(k, int32(i), &nodes) {
			t.Fatalf("key %d lost right after insert", k)
		}
	}
	// Delete every third key, then verify the rest still resolve with
	// their chains intact.
	for i := 0; i < 64; i += 3 {
		got := chainOf(&tab, &nodes, keys[i])
		if len(got) != 1 || got[0] != int32(i) {
			t.Fatalf("key %d chain %v, want [%d]", keys[i], got, i)
		}
	}
	for i := 0; i < 64; i++ {
		_, ok := tab.Find(keys[i])
		if want := i%3 != 0; ok != want {
			t.Fatalf("key %d present=%v want %v after backshift deletes", keys[i], ok, want)
		}
	}
}

// TestHomePoolClearsCallbacks pins that a home-side read carries its
// continuation through the pool intact and that no record can pin a
// callback: the pool stores a bound handler, an integer, so a released
// record holds no pointer at all.
func TestHomePoolClearsCallbacks(t *testing.T) {
	eng := sim.New()
	var homes pool.Pool[homeReq]
	fired := -1
	i := homes.Put(homeReq{line: 1, done: eng.Bind(func(_ sim.Time, arg int) { fired = arg }), arg: 42})
	eng.Call(homes.At(i).done, homes.At(i).arg)
	homes.Free(i)
	if fired != 42 {
		t.Fatalf("callback saw arg %d, want 42", fired)
	}
	typ := reflect.TypeOf(homeReq{})
	for f := 0; f < typ.NumField(); f++ {
		switch typ.Field(f).Type.Kind() {
		case reflect.Pointer, reflect.Func, reflect.Slice, reflect.Map, reflect.Interface, reflect.Chan, reflect.String:
			t.Fatalf("homeReq.%s can pin memory; the pool must hold integers only", typ.Field(f).Name)
		}
	}
}
