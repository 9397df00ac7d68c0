package prefcqa

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"prefcqa/internal/core"
	"prefcqa/internal/repair"
)

// sequentialRepairs renders what the sequential reference engine
// enumerates on the snapshot's pinned priority — computed from
// scratch, without the version's resolved structure.
func sequentialRepairs(s *Snapshot, f Family, rel string) []string {
	sr := s.rels[rel]
	var out []string
	for _, set := range core.Sequential().All(f, sr.rel.Pri) {
		out = append(out, sr.rel.Inst.Subset(set).String())
	}
	return out
}

// resolvedProbes are closed queries over R(K,V), one per read path:
// a ground atom and a constant-bound quantifier (touched components,
// resolved inline), a constant-free atom (the whole relation: the
// version's resolved structure), and an unsafe query the support
// analysis declines (the whole-database fallback, also resolved).
var resolvedProbes = []string{
	"R(1, 0)",
	"EXISTS v . R(1, v) AND v < 1",
	"EXISTS k, v . R(k, v) AND v > 0",
	"EXISTS k . R(k, 1) AND NOT R(k, 0)",
	"EXISTS x . x = 2 AND NOT R(x, 0)",
}

// checkSnapshotAgainstOracle asserts that the snapshot's repairs (and
// their order), counts and query verdicts are the definitional ones.
func checkSnapshotAgainstOracle(t *testing.T, label string, s *Snapshot) {
	t.Helper()
	for _, f := range []Family{Rep, Local, SemiGlobal, Global, Common} {
		reps, err := s.Repairs(f, "R")
		if err != nil {
			t.Fatalf("%s, %v: Repairs: %v", label, f, err)
		}
		want := sequentialRepairs(s, f, "R")
		if len(reps) != len(want) {
			t.Fatalf("%s, %v: %d repairs, the sequential engine has %d", label, f, len(reps), len(want))
		}
		for i, rp := range reps {
			if rp.String() != want[i] {
				t.Fatalf("%s, %v: repair %d = %s, the sequential engine has %s (order must match)", label, f, i, rp, want[i])
			}
		}
		for round := 0; round < 2; round++ { // the second count is the kept total
			if n, err := s.CountRepairs(f, "R"); err != nil || n != int64(len(want)) {
				t.Fatalf("%s, %v: CountRepairs = %d, %v, want %d", label, f, n, err, len(want))
			}
		}
		models := oracleRepairs(t, s, f)
		for _, q := range resolvedProbes {
			got, err := s.Query(f, q)
			if err != nil {
				t.Fatalf("%s, %v: Query(%s): %v", label, f, q, err)
			}
			if want := oracleVerdict(t, models, q); got != want {
				t.Fatalf("%s, %v: Query(%s) = %v, the oracle says %v", label, f, q, got, want)
			}
		}
	}
}

// randomMutation applies one random insert, delete or preference to
// R(K,V), keeping the relation small enough to enumerate.
func randomMutation(t *testing.T, rng *rand.Rand, r *Relation) {
	t.Helper()
	live := r.Instance().AllIDs().Slice()
	switch k := rng.Intn(4); {
	case k < 2 && len(live) < 12 || len(live) < 7:
		if _, err := r.Insert(int64(rng.Intn(4)), int64(rng.Intn(4))); err != nil {
			t.Fatal(err)
		}
	case k == 2:
		if _, err := r.Delete(live[rng.Intn(len(live))]); err != nil {
			t.Fatal(err)
		}
	default:
		// A rank-respecting pair can never close a cycle.
		a, b := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
		if a > b {
			a, b = b, a
		}
		if a != b {
			if err := r.Prefer(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPinnedVersionKeepsItsResolvedAnswers: what a version derives
// from all of its components belongs to that version. A snapshot
// pinned at version v — first read only after the head has moved 100
// mutations on — answers queries, counts and repair listings for v,
// and the head answers for the head, under every family.
func TestPinnedVersionKeepsItsResolvedAnswers(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, r := newMutDB(t)
		for i := 0; i < 8; i++ {
			randomMutation(t, rng, r)
		}
		pinned, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			randomMutation(t, rng, r)
			if i%10 == 0 {
				// Reads of the head in between publish (and resolve)
				// intermediate versions.
				if _, err := db.Query(Global, resolvedProbes[2]); err != nil {
					t.Fatal(err)
				}
			}
		}
		head, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshotAgainstOracle(t, fmt.Sprintf("seed %d, pinned", seed), pinned)
		checkSnapshotAgainstOracle(t, fmt.Sprintf("seed %d, head", seed), head)
	}
}

// TestConcurrentFirstTouchAndCounts is the -race exercise of the
// per-version structures: 16 goroutines make the first whole-relation
// reads and counts of one snapshot at once while another goroutine
// keeps mutating, querying and counting the head. Every reader of the
// pinned version must see the one value computed beforehand on an
// identical database.
func TestConcurrentFirstTouchAndCounts(t *testing.T) {
	build := func() (*DB, *Relation) {
		db, r := newMutDB(t)
		for k := 0; k < 400; k++ {
			a, b := r.MustInsert(int64(k), int64(0)), r.MustInsert(int64(k), int64(1))
			if k%100 != 0 { // 4 undetermined clusters: 16 preferred repairs
				if err := r.Prefer(a, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		return db, r
	}
	ref, _ := build()
	const probe = "EXISTS k, v . R(k, v) AND v > 0"
	wantAns, err := ref.Query(Global, probe)
	if err != nil {
		t.Fatal(err)
	}
	wantCount, err := ref.CountRepairs(Global, "R")
	if err != nil || wantCount != 16 {
		t.Fatalf("reference count = %d, %v, want 16", wantCount, err)
	}
	wantFirst := ""
	refSnap, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := refSnap.EnumerateRepairs(context.Background(), Global, "R", func(rp *Instance) bool {
		wantFirst = rp.String()
		return false
	}); err != nil {
		t.Fatal(err)
	}

	db, r := build()
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id, err := r.Insert(int64(1000+i), int64(0))
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			if _, err := db.CountRepairs(Global, "R"); err != nil {
				t.Errorf("writer: head count: %v", err)
				return
			}
			if _, err := db.Query(Global, probe); err != nil {
				t.Errorf("writer: head query: %v", err)
				return
			}
			if _, err := r.Delete(id); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 16; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 5; i++ {
				if a, err := snap.Query(Global, probe); err != nil || a != wantAns {
					t.Errorf("pinned query = %v, %v, want %v", a, err, wantAns)
				}
				if n, err := snap.CountRepairs(Global, "R"); err != nil || n != wantCount {
					t.Errorf("pinned count = %d, %v, want %d", n, err, wantCount)
				}
				first := ""
				if err := snap.EnumerateRepairs(context.Background(), Global, "R", func(rp *Instance) bool {
					first = rp.String()
					return false
				}); err != nil || first != wantFirst {
					t.Errorf("pinned first repair differs from the reference (err %v)", err)
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestCountOverflowVerdictIsKept: the overflow verdict is part of the
// kept total — the second count of a version whose repair count
// exceeds int64 reports it again.
func TestCountOverflowVerdictIsKept(t *testing.T) {
	db, r := newMutDB(t)
	for k := 0; k < 70; k++ {
		r.MustInsert(int64(k), int64(0))
		r.MustInsert(int64(k), int64(1))
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if _, err := snap.CountRepairs(Rep, "R"); !errors.Is(err, repair.ErrOverflow) {
			t.Fatalf("round %d: count of 2^70 repairs: err = %v, want the overflow verdict", round, err)
		}
	}
}

// TestBoundedVerifyThroughFacade: a monotone or antitone query over
// more than two preferred repairs that is decided on their union or
// their intersection says so in QueryStats, for every family; an
// undecided one walks and does not.
func TestBoundedVerifyThroughFacade(t *testing.T) {
	const n = 200
	db := chainDB(t, n)
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, f := range []Family{Rep, Local, SemiGlobal, Global, Common} {
		for _, c := range []struct {
			query   string
			want    Answer
			bounded int64
		}{
			{chainQuery, False, 1},
			{"EXISTS a, b . CR(a, b)", True, 1},
			{"FORALL a, b . NOT CR(a, b) OR b >= 0", True, 1},
			{fmt.Sprintf("EXISTS a, b . CR(a, b) AND b >= %d", n), Undetermined, 0},
			{fmt.Sprintf("EXISTS a, b . CR(a, b) AND b >= %d AND NOT CS(b, b)", n), Undetermined, 0},
		} {
			before := db.QueryStats()
			got, err := snap.QueryContext(ctx, f, c.query)
			if err != nil || got != c.want {
				t.Fatalf("%v %q = %v, %v, want %v", f, c.query, got, err, c.want)
			}
			after := db.QueryStats()
			if d := after.ClosedBounded - before.ClosedBounded; d != c.bounded {
				t.Errorf("%v %q: ClosedBounded grew by %d, want %d", f, c.query, d, c.bounded)
			}
			if d := after.ClosedPruned - before.ClosedPruned; d != 1 {
				t.Errorf("%v %q: ClosedPruned grew by %d, want 1", f, c.query, d)
			}
		}
	}
}
