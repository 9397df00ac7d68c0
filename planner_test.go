package prefcqa

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// plannerQueries covers the access-path surface at facade level:
// constant probes, runtime-bound join variables, negated atoms,
// guarded universals, ground atoms and open queries.
var plannerQueries = []string{
	"EXISTS v . R(1, v)",
	"EXISTS v . R(7, v) AND v > 1",
	"EXISTS k, v . R(k, v) AND R(v, k)",
	"EXISTS k . R(k, k)",
	"FORALL k, v . NOT R(k, v) OR v >= 0",
	"EXISTS k, v . R(k, v) AND NOT R(v, 0)",
	"R(1, 0)",
	"R(2, 1) AND NOT R(2, 0)",
	// Acyclic self-join chains and stars: the Yannakakis executor
	// must agree with the oracle across every repair family.
	"EXISTS a, b, c . R(a, b) AND R(b, c)",
	"EXISTS a, b, c, d . R(a, b) AND R(b, c) AND R(c, d)",
	"EXISTS h, a, b . R(h, a) AND R(h, b) AND a < b",
	// Unsafe, so declined by the support analysis and answered by the
	// whole-database enumeration, where the evaluator binds x from its
	// equality: key 1 is a conflicting cluster in every seed (usually
	// undetermined), key 5 exists only where a mutation inserted it
	// (decided either way).
	"EXISTS x . x = 1 AND NOT R(x, 0)",
	"EXISTS x . x = 5 AND NOT R(x, 0)",
}

// TestFacadeMatchesOracle is the facade-level planner property: for
// every family, every query and every snapshot of a mutating relation
// — postings accumulating tombstones and fresh IDs across mutation
// batches and snapshot forks — the planned, pruned read path must
// return the verdict of the definitional oracle (oracle_test.go).
func TestFacadeMatchesOracle(t *testing.T) {
	families := []Family{Rep, Local, SemiGlobal, Global, Common}
	const openSrc = "EXISTS v . R(x, v) AND v > 0"
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, r := newMutDB(t)

		checkSnap := func(tag string, snap *Snapshot) {
			t.Helper()
			for _, f := range families {
				repairs := oracleRepairs(t, snap, f)
				for _, src := range plannerQueries {
					got, err := snap.Query(f, src)
					if err != nil {
						t.Fatalf("seed %d %s %v %q: %v", seed, tag, f, src, err)
					}
					if want := oracleVerdict(t, repairs, src); got != want {
						t.Fatalf("seed %d %s %v %q: facade=%v oracle=%v", seed, tag, f, src, got, want)
					}
				}
				// Open queries go through the same evaluator; their
				// certain-answer sets must match too.
				bs, err := snap.QueryOpen(f, openSrc)
				if err != nil {
					t.Fatalf("seed %d %s %v open: %v", seed, tag, f, err)
				}
				got := make([]string, len(bs))
				for i, b := range bs {
					got[i] = b.String()
				}
				sort.Strings(got)
				if want := oracleOpen(t, snap, repairs, openSrc, "x"); strings.Join(got, ";") != strings.Join(want, ";") {
					t.Fatalf("seed %d %s %v open: facade=%v oracle=%v", seed, tag, f, got, want)
				}
			}
		}
		checkAll := func(tag string) {
			t.Helper()
			snap, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			checkSnap(tag, snap)
		}

		// Seed data: conflicting clusters on K with some preferences.
		var ids []TupleID
		for i := 0; i < 12; i++ {
			id, err := r.Insert(i%5, i%3)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		checkAll("seeded")

		// Mutation batches interleaved with queries: the postings
		// accumulate tombstones and fresh IDs.
		for batch := 0; batch < 6; batch++ {
			for j := 0; j < 3; j++ {
				switch rng.Intn(3) {
				case 0:
					if _, err := r.Insert(int64(rng.Intn(6)), int64(rng.Intn(4))); err != nil {
						t.Fatal(err)
					}
				case 1:
					if _, err := r.Delete(ids[rng.Intn(len(ids))]); err != nil {
						t.Fatal(err)
					}
				case 2:
					g, err := r.Graph()
					if err != nil {
						t.Fatal(err)
					}
					if es := g.Edges(); len(es) > 0 {
						e := es[rng.Intn(len(es))]
						x, y := e.A, e.B
						if x > y {
							x, y = y, x // low ≻ high stays acyclic
						}
						if err := r.Prefer(x, y); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			checkAll(fmt.Sprintf("batch %d", batch))
		}

		// Snapshot isolation: a snapshot taken now must keep matching
		// the oracle over its own pinned versions while the head
		// mutates on.
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		wantSnap := map[string]Answer{}
		for _, src := range plannerQueries {
			a, err := snap.Query(Global, src)
			if err != nil {
				t.Fatal(err)
			}
			wantSnap[src] = a
		}
		for j := 0; j < 5; j++ {
			if _, err := r.Insert(int64(j%5), int64(10+j)); err != nil {
				t.Fatal(err)
			}
		}
		checkAll("post-snapshot")
		checkSnap("pinned", snap)
		for _, src := range plannerQueries {
			a, err := snap.Query(Global, src)
			if err != nil {
				t.Fatal(err)
			}
			if a != wantSnap[src] {
				t.Fatalf("seed %d snapshot drift on %q: got %v want %v", seed, src, a, wantSnap[src])
			}
		}
	}
}

// TestExplainPlanFacade pins the facade's plan report: a selective
// EXISTS must show an index probe and ill-formed inputs must error.
func TestExplainPlanFacade(t *testing.T) {
	db, r := newMutDB(t)
	for i := 0; i < 50; i++ {
		if _, err := r.Insert(i, i%3); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := db.ExplainPlan("EXISTS v . R(7, v)")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("report = %+v; want holds", rep)
	}
	if len(rep.Plans) != 1 || !strings.Contains(rep.Plans[0], "index(K=7)") {
		t.Fatalf("plan should probe K=7:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "holds on full instance: true") {
		t.Fatalf("rendering: %s", rep)
	}

	// Ground queries compile no quantifier plans.
	rep, err = db.ExplainPlan("R(7, 1)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Plans) != 0 || !strings.Contains(rep.String(), "no planned quantifiers") {
		t.Fatalf("ground query report: %s", rep)
	}

	// Errors: open queries and parse failures.
	if _, err := db.ExplainPlan("EXISTS v . R(x, v)"); err == nil {
		t.Fatal("open query must error")
	}
	if _, err := db.ExplainPlan(")("); err == nil {
		t.Fatal("parse failure must error")
	}
	if _, err := db.ExplainPlan("EXISTS v . Nope(v)"); err == nil {
		t.Fatal("unknown relation must error")
	}
}
