package relation_test

import (
	"runtime"
	"strconv"
	"testing"

	"prefcqa/internal/relation"
)

// TestLookupAllocations is the gate on a probe of the tuple-key
// partition: it builds no key, so Lookup, and Insert of a tuple already
// present, allocate nothing. Building the tuple's key string cost one
// object each.
func TestLookupAllocations(t *testing.T) {
	inst := relation.NewInstance(relation.MustSchema("R", relation.IntAttr("K"), relation.NameAttr("V")))
	for i := 0; i < 1000; i++ {
		inst.MustInsert(i, "v"+strconv.Itoa(i%7))
	}
	tup := relation.Tuple{relation.Int(17), relation.Name("v3")}
	lookups := testing.AllocsPerRun(100, func() {
		if _, ok := inst.Lookup(tup); !ok {
			t.Fatal("Lookup missed a present tuple")
		}
	})
	inserts := testing.AllocsPerRun(100, func() {
		if _, fresh, err := inst.Insert(tup); fresh || err != nil {
			t.Fatalf("Insert of a present tuple: fresh=%v, %v", fresh, err)
		}
	})
	if lookups != 0 || inserts != 0 {
		t.Fatalf("Lookup allocates %.0f objects, Insert of a present tuple %.0f; want 0 and 0", lookups, inserts)
	}
}

// TestProbeAllocations is the gate on a value probe: Posting into a
// buffer that has room, IndexEstimate and DistinctEstimate read the
// partition on the attribute and allocate nothing.
func TestProbeAllocations(t *testing.T) {
	inst := relation.NewInstance(relation.MustSchema("R", relation.IntAttr("K"), relation.NameAttr("V")))
	for i := 0; i < 1000; i++ {
		inst.MustInsert(i/10, "v"+strconv.Itoa(i%7)) // 10 rows per K, 7 names
	}
	buf := make([]relation.TupleID, 0, 16)
	k, v := relation.Int(17), relation.Name("v3")
	wantK, wantV := len(inst.Posting(nil, 0, k)), len(inst.Posting(nil, 1, v))
	allocs := testing.AllocsPerRun(100, func() {
		if got := inst.Posting(buf[:0], 0, k); len(got) != wantK {
			t.Fatalf("Posting(K=17) holds %d IDs, want %d", len(got), wantK)
		}
		if inst.IndexEstimate(1, v) != wantV || inst.DistinctEstimate(1) != 7 {
			t.Fatalf("IndexEstimate(V=v3) = %d, DistinctEstimate(V) = %d; want %d, 7", inst.IndexEstimate(1, v), inst.DistinctEstimate(1), wantV)
		}
	})
	if allocs != 0 {
		t.Fatalf("a value probe allocates %.0f objects, want 0", allocs)
	}
}

// TestInsertAllocations is the gate on the insert path at the serving
// benchmark's size: 200 000 inserts of 100 000 two-tuple clusters make
// fewer than 1 000 heap objects, since the columns and the partition
// arrays grow by doubling and nothing is kept per tuple. Keying every
// tuple made 201 106.
func TestInsertAllocations(t *testing.T) {
	inst := relation.NewInstance(relation.MustSchema("R", relation.IntAttr("K"), relation.IntAttr("V")))
	rows := make([]relation.Tuple, 0, 200000)
	for k := 0; k < 100000; k++ {
		rows = append(rows, relation.Tuple{relation.Int(int64(k)), relation.Int(0)}, relation.Tuple{relation.Int(int64(k)), relation.Int(1)})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tup := range rows {
		if _, fresh, err := inst.Insert(tup); !fresh || err != nil {
			t.Fatalf("Insert%v: fresh=%v, %v", tup, fresh, err)
		}
	}
	runtime.ReadMemStats(&after)
	objects := after.Mallocs - before.Mallocs
	t.Logf("%d inserts: %d objects, %.1f MB", len(rows), objects, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	if objects >= 1000 {
		t.Fatalf("%d inserts allocate %d objects, want fewer than 1 000", len(rows), objects)
	}
}
