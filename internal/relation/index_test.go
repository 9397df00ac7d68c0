package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// indexScanIDs reads the (attr, v) posting the way a version must: in
// ascending ID order, skipping tombstones. A posting holds no ID a
// newer version of the chain inserted.
func indexScanIDs(r *Instance, attr int, v Value) []TupleID {
	var out []TupleID
	for _, id := range r.PostingIDs(attr, v) {
		if id >= r.NumIDs() {
			panic(fmt.Sprintf("posting of %s holds %d of %d IDs", v, id, r.NumIDs()))
		}
		if !r.Live(id) {
			continue
		}
		if t := r.Tuple(id); !t[attr].Equal(v) {
			panic(fmt.Sprintf("posting of %s holds %s", v, t[attr]))
		}
		out = append(out, id)
	}
	return out
}

// naiveScanIDs is the reference: a full Range filter.
func naiveScanIDs(r *Instance, attr int, v Value) []TupleID {
	var out []TupleID
	r.Range(func(id TupleID, t Tuple) bool {
		if t[attr].Equal(v) {
			out = append(out, id)
		}
		return true
	})
	return out
}

func sameIDs(a, b []TupleID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIndexScanMatchesRange(t *testing.T) {
	s := MustSchema("R", IntAttr("K"), NameAttr("V"))
	inst := NewInstance(s)
	for i := 0; i < 200; i++ {
		inst.MustInsert(i%17, fmt.Sprintf("v%d", i%5))
	}
	for k := 0; k < 20; k++ {
		v := Int(int64(k))
		if got, want := indexScanIDs(inst, 0, v), naiveScanIDs(inst, 0, v); !sameIDs(got, want) {
			t.Fatalf("K=%d: index %v != scan %v", k, got, want)
		}
	}
	for n := 0; n < 7; n++ {
		v := Name(fmt.Sprintf("v%d", n))
		if got, want := indexScanIDs(inst, 1, v), naiveScanIDs(inst, 1, v); !sameIDs(got, want) {
			t.Fatalf("V=v%d: index %v != scan %v", n, got, want)
		}
	}
}

// TestIndexMaintainedThroughMutation probes the index early, then
// keeps mutating: postings must be maintained incrementally, with
// deletes filtered by liveness and re-inserts getting fresh IDs.
func TestIndexMaintainedThroughMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := MustSchema("R", IntAttr("K"), IntAttr("V"))
	inst := NewInstance(s)
	var live []TupleID
	for i := 0; i < 50; i++ {
		live = append(live, inst.MustInsert(i%7, i))
	}
	indexScanIDs(inst, 0, Int(3)) // build the index before mutating
	for step := 0; step < 400; step++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(live))
			inst.Delete(live[i])
			live = append(live[:i], live[i+1:]...)
		} else {
			live = append(live, inst.MustInsert(rng.Intn(7), rng.Intn(1000)))
		}
		k := Int(int64(rng.Intn(7)))
		if got, want := indexScanIDs(inst, 0, k), naiveScanIDs(inst, 0, k); !sameIDs(got, want) {
			t.Fatalf("step %d K=%s: index %v != scan %v", step, k, got, want)
		}
	}
	// Estimates are upper bounds on the live count.
	for k := 0; k < 7; k++ {
		v := Int(int64(k))
		if est, liveN := inst.IndexEstimate(0, v), len(naiveScanIDs(inst, 0, v)); est < liveN {
			t.Fatalf("K=%d: estimate %d < live %d", k, est, liveN)
		}
	}
}

// TestIndexSnapshotConsistency: a frozen parent probed after the fork
// has moved on must see exactly its own tuples, whether the index was
// built before or after forking.
func TestIndexSnapshotConsistency(t *testing.T) {
	for _, buildBefore := range []bool{false, true} {
		s := MustSchema("R", IntAttr("K"), IntAttr("V"))
		parent := NewInstance(s)
		for i := 0; i < 30; i++ {
			parent.MustInsert(i%3, i)
		}
		wantParent := naiveScanIDs(parent, 0, Int(1))
		if buildBefore {
			indexScanIDs(parent, 0, Int(1))
		}
		child := parent.Fork()
		// Mutate the child: delete one match, add two more.
		child.Delete(wantParent[0])
		child.MustInsert(1, 1000)
		child.MustInsert(1, 1001)
		if got := indexScanIDs(parent, 0, Int(1)); !sameIDs(got, wantParent) {
			t.Fatalf("buildBefore=%v: parent sees %v, want %v", buildBefore, got, wantParent)
		}
		if got, want := indexScanIDs(child, 0, Int(1)), naiveScanIDs(child, 0, Int(1)); !sameIDs(got, want) {
			t.Fatalf("buildBefore=%v: child index %v != scan %v", buildBefore, got, want)
		}
		// A second-generation fork keeps the chain consistent too.
		grand := child.Fork()
		grand.MustInsert(1, 2000)
		if got, want := indexScanIDs(grand, 0, Int(1)), naiveScanIDs(grand, 0, Int(1)); !sameIDs(got, want) {
			t.Fatalf("buildBefore=%v: grandchild index %v != scan %v", buildBefore, got, want)
		}
	}
}

// TestIndexSiblingForkDetaches: forking one frozen parent twice is
// unsupported by the storage chain, but the shared index must still
// notice the sibling (a non-monotone insert ID) and detach before
// recording anything, so each chain's index scan keeps agreeing with
// its own Range whichever sibling probes first.
func TestIndexSiblingForkDetaches(t *testing.T) {
	for _, probeFirst := range []string{"a", "b"} {
		s := MustSchema("R", IntAttr("K"), IntAttr("V"))
		parent := NewInstance(s)
		for i := 0; i < 5; i++ {
			parent.MustInsert(i, i)
		}
		a := parent.Fork()
		b := parent.Fork()
		a.MustInsert(7, 100) // id 5 on chain a
		b.MustInsert(8, 200) // id 5 again: b must detach
		// The key index is shared the same way and detaches with the
		// postings: each chain resolves its own tuple and not the other's.
		for _, c := range []struct {
			inst *Instance
			tup  Tuple
			want bool
		}{
			{a, Tuple{Int(7), Int(100)}, true}, {a, Tuple{Int(8), Int(200)}, false},
			{b, Tuple{Int(8), Int(200)}, true}, {b, Tuple{Int(7), Int(100)}, false},
			{parent, Tuple{Int(7), Int(100)}, false}, {parent, Tuple{Int(8), Int(200)}, false},
			{a, Tuple{Int(3), Int(3)}, true}, {b, Tuple{Int(3), Int(3)}, true},
		} {
			if id, ok := c.inst.Lookup(c.tup); ok != c.want || (ok && id != 5 && id != 3) {
				t.Fatalf("probeFirst=%s: Lookup%v = %d, %v; want found=%v", probeFirst, c.tup, id, ok, c.want)
			}
		}
		first, second := a, b
		if probeFirst == "b" {
			first, second = b, a
		}
		for _, inst := range []*Instance{first, second, parent} {
			for k := 0; k < 9; k++ {
				v := Int(int64(k))
				if got, want := indexScanIDs(inst, 0, v), naiveScanIDs(inst, 0, v); !sameIDs(got, want) {
					t.Fatalf("probeFirst=%s K=%d: index %v != scan %v", probeFirst, k, got, want)
				}
			}
		}
	}
}

// TestIndexConcurrentReadersAndWriter mirrors the facade's snapshot
// model: readers probe frozen versions while the head keeps mutating.
// Run under -race.
func TestIndexConcurrentReadersAndWriter(t *testing.T) {
	s := MustSchema("R", IntAttr("K"), IntAttr("V"))
	head := NewInstance(s)
	for i := 0; i < 500; i++ {
		head.MustInsert(i%11, i)
	}
	var wg sync.WaitGroup
	for gen := 0; gen < 20; gen++ {
		frozen := head
		head = head.Fork()
		wg.Add(1)
		go func(snap *Instance, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var members []TupleID
			for i := 0; i < 50; i++ {
				// A value probe reads the partition on K (built by
				// whichever reader or writer comes first) through the
				// version's bound: ascending members that carry the
				// value, as many as Size counts, and the live ones are
				// what a scan finds.
				k := Int(int64(rng.Intn(11)))
				part := snap.Partition([]int{0})
				members = part.Members(members[:0], []Value{k})
				if !slices.IsSorted(members) || part.Size([]Value{k}) != len(members) || snap.IndexEstimate(0, k) != len(members) {
					panic(fmt.Sprintf("K=%s: members %v, Size %d", k, members, part.Size([]Value{k})))
				}
				var ids []TupleID
				for _, id := range members {
					if id >= snap.NumIDs() || !snap.ValueAt(id, 0).Equal(k) {
						panic(fmt.Sprintf("K=%s: member %d of %d IDs carries %s", k, id, snap.NumIDs(), snap.ValueAt(id, 0)))
					}
					if snap.Live(id) {
						ids = append(ids, id)
					}
				}
				if want := naiveScanIDs(snap, 0, k); !sameIDs(ids, want) {
					panic(fmt.Sprintf("K=%s: live members %v, scan %v", k, ids, want))
				}
				// The live runs of the same partition cover the live
				// tuples, and Lookup resolves each.
				if live, _ := part.Groups(nil, nil); len(live) != snap.Len() {
					panic(fmt.Sprintf("partition runs hold %d IDs, %d live", len(live), snap.Len()))
				}
				for _, id := range ids {
					if got, ok := snap.Lookup(snap.Tuple(id)); !ok || got != id {
						panic(fmt.Sprintf("Lookup of tuple %d = %d, %v", id, got, ok))
					}
				}
			}
		}(frozen, int64(gen))
		for i := 0; i < 30; i++ {
			head.MustInsert(i%11, 1000*gen+i)
			if i%3 == 0 {
				head.Delete(TupleID(i * gen % head.NumIDs()))
			}
		}
	}
	wg.Wait()
	for k := 0; k < 11; k++ {
		v := Int(int64(k))
		if got, want := indexScanIDs(head, 0, v), naiveScanIDs(head, 0, v); !sameIDs(got, want) {
			t.Fatalf("head K=%d: index %v != scan %v", k, got, want)
		}
	}
}

func BenchmarkIndexScanVsRange(b *testing.B) {
	s := MustSchema("R", IntAttr("K"), IntAttr("V"))
	inst := NewInstance(s)
	n := 100_000
	for i := 0; i < n; i++ {
		inst.MustInsert(i%(n/10), i) // ~10 tuples per key
	}
	v := Int(7)
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if cnt := len(indexScanIDs(inst, 0, v)); cnt != 10 {
				b.Fatal(cnt)
			}
		}
	})
	b.Run("range", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cnt := 0
			inst.Range(func(_ TupleID, t Tuple) bool {
				if t[0].Equal(v) {
					cnt++
				}
				return true
			})
			if cnt != 10 {
				b.Fatal(cnt)
			}
		}
	})
}
