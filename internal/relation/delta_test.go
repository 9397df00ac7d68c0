package relation

import (
	"math/rand"
	"testing"
)

func pairSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("R", IntAttr("A"), IntAttr("B"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDeleteTombstones(t *testing.T) {
	inst := NewInstance(pairSchema(t))
	a := inst.MustInsert(1, 1)
	b := inst.MustInsert(2, 2)
	v0 := inst.Version()
	if !inst.Delete(a) {
		t.Fatal("Delete(a) = false")
	}
	if inst.Delete(a) {
		t.Fatal("double delete reported true")
	}
	if inst.Version() == v0 {
		t.Fatal("Delete did not bump the version")
	}
	if inst.Len() != 1 || inst.NumIDs() != 2 {
		t.Fatalf("Len/NumIDs = %d/%d, want 1/2", inst.Len(), inst.NumIDs())
	}
	if inst.Live(a) || !inst.Live(b) {
		t.Fatal("liveness wrong after delete")
	}
	if inst.Contains(Tuple{Int(1), Int(1)}) {
		t.Fatal("deleted tuple still Contains")
	}
	// Range, AllIDs, SortedIDs skip tombstones.
	seen := 0
	inst.Range(func(id TupleID, _ Tuple) bool {
		if id == a {
			t.Fatal("Range yielded a tombstone")
		}
		seen++
		return true
	})
	if seen != 1 {
		t.Fatalf("Range yielded %d tuples", seen)
	}
	if ids := inst.AllIDs(); ids.Has(a) || !ids.Has(b) || ids.Len() != 1 {
		t.Fatalf("AllIDs = %v", ids)
	}
	if got := inst.SortedIDs(); len(got) != 1 || got[0] != b {
		t.Fatalf("SortedIDs = %v", got)
	}
	// The tombstoned tuple's data stays readable.
	if inst.Tuple(a)[0].String() != "1" {
		t.Fatal("tombstoned tuple data lost")
	}
}

func TestReinsertAfterDeleteGetsFreshID(t *testing.T) {
	inst := NewInstance(pairSchema(t))
	a := inst.MustInsert(1, 1)
	inst.Delete(a)
	a2 := inst.MustInsert(1, 1)
	if a2 == a {
		t.Fatalf("ID %d reused", a)
	}
	if id, ok := inst.Lookup(Tuple{Int(1), Int(1)}); !ok || id != a2 {
		t.Fatalf("Lookup = (%d, %v), want (%d, true)", id, ok, a2)
	}
	if inst.Len() != 1 || inst.NumIDs() != 2 {
		t.Fatalf("Len/NumIDs = %d/%d", inst.Len(), inst.NumIDs())
	}
}

// TestForkIsolation: a fork's mutations are invisible to its parent —
// one and two generations apart first, then at depth: versions pinned
// along a 10 000-mutation stream of chained forks (inserts, deletes,
// re-inserts of deleted tuples; long enough to reach a second
// tombstone chunk) share the partitions and the tombstone chunks with
// every version forked after them, and each must still resolve every
// tuple of the domain exactly as it did when it was the head.
func TestForkIsolation(t *testing.T) {
	parent := NewInstance(pairSchema(t))
	a := parent.MustInsert(1, 1)
	b := parent.MustInsert(2, 2)
	child := parent.Fork()

	// Parent is frozen.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mutating a frozen parent did not panic")
			}
		}()
		parent.MustInsert(9, 9)
	}()

	// Child mutations are invisible to the parent.
	child.Delete(a)
	c := child.MustInsert(3, 3)
	if !parent.Live(a) || parent.NumIDs() != 2 || parent.Len() != 2 {
		t.Fatal("parent observed child mutations")
	}
	if parent.Contains(Tuple{Int(3), Int(3)}) {
		t.Fatal("parent sees child insert")
	}
	if child.Live(a) || !child.Live(b) || !child.Live(c) {
		t.Fatal("child state wrong")
	}
	if child.Len() != 2 || child.NumIDs() != 3 {
		t.Fatalf("child Len/NumIDs = %d/%d", child.Len(), child.NumIDs())
	}
	// Chained forks: overlay and tombstones accumulate correctly.
	grand := child.Fork()
	grand.Delete(b)
	d := grand.MustInsert(1, 1) // re-insert of the tuple deleted in child
	if d == a {
		t.Fatal("grandchild reused a tombstoned ID")
	}
	if id, ok := grand.Lookup(Tuple{Int(1), Int(1)}); !ok || id != d {
		t.Fatalf("grandchild Lookup = (%d, %v)", id, ok)
	}
	if _, ok := child.Lookup(Tuple{Int(1), Int(1)}); ok {
		t.Fatal("child sees grandchild re-insert")
	}
	if !child.Live(b) {
		t.Fatal("child lost b to grandchild delete")
	}

	type pin struct {
		inst *Instance
		want map[[2]int]TupleID // the live tuples and their IDs
	}
	var pins []pin
	rng := rand.New(rand.NewSource(19))
	cur, live := grand, map[[2]int]TupleID{{1, 1}: d, {3, 3}: c}
	viaOlder := 0
	for step := 0; step < 10000; step++ {
		cur = cur.Fork()
		// 150 x 4 possible tuples, deleted when live and inserted when
		// not: a deleted one comes back, under a fresh ID, soon.
		k := [2]int{rng.Intn(150), rng.Intn(4)}
		if id, ok := live[k]; ok {
			cur.Delete(id)
			delete(live, k)
		} else {
			live[k] = cur.MustInsert(k[0], k[1])
		}
		if step%97 == 0 {
			want := make(map[[2]int]TupleID, len(live))
			for k, id := range live {
				want[k] = id
			}
			pins = append(pins, pin{cur, want})
		}
	}
	pins = append(pins, pin{cur, live})
	if cur.NumIDs() <= 1<<tombShift {
		t.Fatalf("the stream assigned %d IDs: the tombstones never reached a second chunk", cur.NumIDs())
	}
	for i, p := range pins {
		if p.inst.Len() != len(p.want) {
			t.Fatalf("pin %d: Len %d, want %d", i, p.inst.Len(), len(p.want))
		}
		for x := 0; x < 150; x++ {
			for y := 0; y < 4; y++ {
				tup := Tuple{Int(int64(x)), Int(int64(y))}
				want, ok := p.want[[2]int{x, y}]
				got, found := p.inst.Lookup(tup)
				if found != ok || (ok && got != want) {
					t.Fatalf("pin %d: Lookup(%d, %d) = %d, %v; want %d, %v", i, x, y, got, found, want, ok)
				}
				if ok && cur.Partition([]int{0, 1}).Group(nil, want)[0] != want {
					viaOlder++
				}
			}
		}
	}
	if viaOlder == 0 {
		t.Fatal("no pinned lookup had to step past a newer ID of its key: the stream re-inserted nothing a pin still saw")
	}
}

func TestForkOverlayFold(t *testing.T) {
	// Push inserts through a long chain of forks (long enough to have
	// folded the per-version key overlay there once was; the tuple-key
	// partition is now one per chain), then verify lookups across the
	// whole key space.
	inst := NewInstance(pairSchema(t))
	for i := 0; i < 10; i++ {
		inst.MustInsert(int64(i), 0)
	}
	cur := inst
	for i := 10; i < 400; i++ {
		cur = cur.Fork()
		cur.MustInsert(int64(i), 0)
	}
	if cur.Len() != 400 {
		t.Fatalf("Len = %d", cur.Len())
	}
	for i := 0; i < 400; i++ {
		if id, ok := cur.Lookup(Tuple{Int(int64(i)), Int(0)}); !ok || id != i {
			t.Fatalf("Lookup(%d) = (%d, %v)", i, id, ok)
		}
	}
	// The root is untouched.
	if inst.Len() != 10 {
		t.Fatalf("root Len = %d", inst.Len())
	}
}

func TestVersionMonotone(t *testing.T) {
	inst := NewInstance(pairSchema(t))
	v := inst.Version()
	id := inst.MustInsert(1, 1)
	if inst.Version() <= v {
		t.Fatal("Insert did not bump version")
	}
	v = inst.Version()
	inst.MustInsert(1, 1) // duplicate: no state change
	if inst.Version() != v {
		t.Fatal("duplicate insert bumped version")
	}
	child := inst.Fork()
	if child.Version() != v {
		t.Fatal("fork changed version")
	}
	child.Delete(id)
	if child.Version() <= v {
		t.Fatal("Delete did not bump version")
	}
}
