package linetab

import (
	"math/rand"
	"testing"
)

// lineID stands in for the datapath's key types (arch.LineID and
// arch.PageID are both defined on uint64).
type lineID uint64

// wraps reports whether the probe cluster that starts after slot i
// runs past the end of the array, so a backward shift into i would
// have to wrap.
func wraps(t *Table[lineID, int32], i int) bool {
	for j := i + 1; ; j++ {
		if j == len(t.keys) {
			return t.keys[0] != 0
		}
		if t.keys[j] == 0 {
			return false
		}
	}
}

// TestTableAgainstMapReference drives a Table and a Go map with the
// same seeded random sequences of Find, Get, FindOrInsert (the MSHR
// merge), Delete (MSHR completion) and the overwriting Put of vmm's
// page table, and compares them after every step. Each sequence fills
// the table from its zero value, drains it back down and refills it.
// Over 1,500 strided keys (the streaming pattern, which Fibonacci
// hashing spreads evenly) that takes the table through eight doublings.
// Over 11 or 23 random keys it stays at 16 or 32 slots near 3/4 load,
// where random hashes form long clusters; across 40 such key sets per
// seed, many deletes shift a cluster back across the end of the array.
// Every key set includes 0.
func TestTableAgainstMapReference(t *testing.T) {
	wrapped := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		strided := make([]lineID, 1500)
		for i := range strided {
			strided[i] = lineID(i * 31)
		}
		wrapped += diffTable(t, rng, strided, 30000)
		for set := 0; set < 40; set++ {
			random := make([]lineID, 11+12*(set%2)) // random[0] stays 0
			for i := 1; i < len(random); i++ {
				random[i] = lineID(rng.Int63())
			}
			wrapped += diffTable(t, rng, random, 3000)
		}
	}
	if wrapped < 1000 {
		t.Fatalf("only %d deletes shifted a cluster across the end of the array; the test must exercise the wrap", wrapped)
	}
}

// diffTable runs a random sequence of steps operations over the given
// keys and returns how many deletes hit a cluster that wraps.
func diffTable(t *testing.T, rng *rand.Rand, keys []lineID, steps int) (wrapped int) {
	t.Helper()
	var tab Table[lineID, int32]
	ref := map[lineID]int32{}
	for step := 0; step < steps; step++ {
		k := keys[rng.Intn(len(keys))]
		// Three equal phases: fill, drain, mixed.
		insertBias := [3]int{80, 20, 50}[3*step/steps]
		v := int32(step)
		switch op := rng.Intn(100); {
		case op < insertBias/2:
			i, found := tab.FindOrInsert(k, v)
			want, ok := ref[k]
			if found != ok {
				t.Fatalf("%d keys, step %d: FindOrInsert(%d) found=%v, reference %v", len(keys), step, k, found, ok)
			}
			if !found {
				ref[k] = v
				want = v
			}
			if got := *tab.Val(i); got != want {
				t.Fatalf("%d keys, step %d: FindOrInsert(%d) slot holds %d, want %d", len(keys), step, k, got, want)
			}
		case op < insertBias:
			tab.Put(k, v)
			ref[k] = v
		case op < insertBias+30:
			if i, ok := tab.Find(k); ok && wraps(&tab, i) {
				wrapped++
			}
			got, ok := tab.Delete(k)
			want, rok := ref[k]
			if ok != rok || got != want {
				t.Fatalf("%d keys, step %d: Delete(%d) = (%d, %v), reference (%d, %v)", len(keys), step, k, got, ok, want, rok)
			}
			delete(ref, k)
		default:
			got, ok := tab.Get(k)
			want, rok := ref[k]
			_, fok := tab.Find(k)
			if ok != rok || fok != rok || got != want {
				t.Fatalf("%d keys, step %d: Get(%d) = (%d, %v), Find %v, reference (%d, %v)", len(keys), step, k, got, ok, fok, want, rok)
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("%d keys, step %d: Len %d, reference %d", len(keys), step, tab.Len(), len(ref))
		}
		if step%500 == 0 {
			checkContents(t, &tab, ref)
		}
	}
	checkContents(t, &tab, ref)
	if len(keys) > 1000 && len(tab.keys) < 2048 {
		t.Fatalf("table peaked at %d slots; the fill phase must double it at least 8 times", len(tab.keys))
	}
	return wrapped
}

// checkContents requires every reference key to resolve to its value
// and All to yield exactly the reference contents.
func checkContents(t *testing.T, tab *Table[lineID, int32], ref map[lineID]int32) {
	t.Helper()
	for k, want := range ref {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("key %d = (%d, %v), want (%d, true)", k, got, ok, want)
		}
	}
	n := 0
	for k, v := range tab.All() {
		n++
		if want, ok := ref[k]; !ok || v != want {
			t.Fatalf("All yields %d → %d, reference (%d, %v)", k, v, want, ok)
		}
	}
	if n != len(ref) {
		t.Fatalf("All yields %d keys, reference %d", n, len(ref))
	}
}

// TestTableDeleteWrapsCluster builds a cluster whose keys all hash to
// the last slot, so it continues at slot 0, and deletes its head: every
// other key must shift back across the end of the array and stay
// findable.
func TestTableDeleteWrapsCluster(t *testing.T) {
	var tab Table[lineID, int32]
	tab.Init(16)
	last := len(tab.keys) - 1
	var keys []lineID
	for k := lineID(0); len(keys) < 4; k++ {
		if tab.slot(uint64(k)+1) == last {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		if _, found := tab.FindOrInsert(k, int32(i)); found {
			t.Fatalf("key %d found before insertion", k)
		}
	}
	if tab.keys[last] != uint64(keys[0])+1 || tab.keys[0] != uint64(keys[1])+1 {
		t.Fatal("cluster does not wrap; the test set-up is wrong")
	}
	if v, ok := tab.Delete(keys[0]); !ok || v != 0 {
		t.Fatalf("Delete(%d) = (%d, %v), want (0, true)", keys[0], v, ok)
	}
	for i, k := range keys[1:] {
		if v, ok := tab.Get(k); !ok || v != int32(i+1) {
			t.Fatalf("key %d = (%d, %v) after the shift, want (%d, true)", k, v, ok, i+1)
		}
	}
	if tab.keys[last] != uint64(keys[1])+1 || tab.keys[len(keys)-2] != 0 {
		t.Fatal("the cluster did not shift back by one slot across the end of the array")
	}
}

// TestTableZeroValueAndInit pins that the zero Table is empty and
// usable, that Init presizes without changing behaviour, and that a
// Put onto an existing key overwrites without adding a key.
func TestTableZeroValueAndInit(t *testing.T) {
	var zero Table[lineID, int32]
	if _, ok := zero.Find(0); ok {
		t.Fatal("zero-value table must be empty")
	}
	if _, ok := zero.Delete(0); ok {
		t.Fatal("delete from the zero-value table must report absence")
	}
	var sized Table[lineID, int32]
	sized.Init(100)
	if len(sized.keys) != 128 {
		t.Fatalf("Init(100) allocated %d slots, want 128", len(sized.keys))
	}
	for _, tab := range []*Table[lineID, int32]{&zero, &sized} {
		tab.Put(0, 1)
		tab.Put(0, 2)
		if v, ok := tab.Get(0); !ok || v != 2 || tab.Len() != 1 {
			t.Fatalf("after Put(0,1), Put(0,2): Get(0) = (%d, %v), Len %d; want (2, true), 1", v, ok, tab.Len())
		}
		if i, found := tab.FindOrInsert(0, 3); !found || *tab.Val(i) != 2 {
			t.Fatal("FindOrInsert must leave an existing value alone")
		}
	}
}
