package cqa

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"prefcqa/internal/core"
	"prefcqa/internal/fd"
	"prefcqa/internal/query"
	"prefcqa/internal/relation"
)

// boundSeeds are closed queries over quantDiffInput whose walk has more
// than two leaves in every family (R's clusters 3 and 4 are unoriented
// everywhere), one per way the bounds can go. bounded says whether one
// of the two bound evaluations decides the query; the answers do not
// depend on the family because no seed looks at cluster 5.
var boundSeeds = []struct {
	src     string
	bounded bool
	want    Answer
}{
	// Monotone over the whole relation.
	{"EXISTS k, v . R(k, v) AND v > 5 AND k < 9", true, CertainlyFalse},               // false on the union
	{"EXISTS k, v . R(k, v) AND v = 9", true, CertainlyTrue},                          // true on the intersection
	{"EXISTS k, v . R(k, v) AND k = 3 AND v = 0", false, Undetermined},                // undecided
	{"EXISTS k, v . R(k, v) AND k = 3", false, CertainlyTrue},                         // undecided, every repair agrees
	{"EXISTS k . R(k, 0) AND R(k, 1) AND k >= 3", false, CertainlyFalse},              // true only on the inconsistent union
	{"EXISTS k, v, w . R(k, v) AND S(k, w) AND w > v AND w > 5", false, Undetermined}, // two relations vary
	{"EXISTS k, v, w . R(k, v) AND S(k, w) AND v > w AND v > 8", true, CertainlyFalse},
	// Antitone.
	{"FORALL k, v . NOT R(k, v) OR v >= 0", true, CertainlyTrue},          // true on the union
	{"FORALL k, v . NOT R(k, v) OR v < 9", true, CertainlyFalse},          // false on the intersection
	{"FORALL k, v . NOT R(k, v) OR k != 3 OR v = 0", false, Undetermined}, // undecided
	{"NOT (EXISTS k, v . R(k, v) AND k = 4)", false, CertainlyFalse},      // undecided, every repair agrees
	// Mixed polarity: no bounds, whatever they would say.
	{"EXISTS k, v . R(k, v) AND NOT S(k, v)", false, CertainlyTrue},
	{"(EXISTS k, v . R(k, v) AND v = 7) AND NOT (EXISTS k, w . S(k, w) AND w = 6)", false, CertainlyFalse},
	// Ground, four leaves.
	{"R(3, 0) OR R(4, 0) OR R(9, 9)", true, CertainlyTrue},
	{"R(3, 0) AND R(4, 1) AND R(7, 7)", true, CertainlyFalse},
	{"R(3, 0) OR R(4, 0)", false, Undetermined},
	{"R(3, 0) AND R(3, 1) AND (R(4, 0) OR R(4, 1))", false, CertainlyFalse},
	{"NOT R(3, 0) OR NOT R(4, 1)", false, Undetermined},
	{"NOT R(3, 0) AND R(4, 1)", false, Undetermined},
	// Two leaves: the walk's early exit is never dearer than the bounds.
	{"EXISTS v . R(3, v) AND v = 7", false, CertainlyFalse},
	{"R(3, 0) OR R(9, 9)", false, CertainlyTrue},
}

// TestClosedBoundsMatchFull pins, for every family, that a bounded
// answer is the answer of the full enumeration, that exactly the
// decidable seeds are decided on a bound, and that a bounded request
// still counts as pruned.
func TestClosedBoundsMatchFull(t *testing.T) {
	in := quantDiffInput(t)
	stats := &EvalStats{}
	in = in.WithStats(stats)
	for _, f := range core.Families {
		for _, c := range boundSeeds {
			q := query.MustParse(c.src)
			tag := fmt.Sprintf("%v %q", f, c.src)
			before := stats.Snapshot()
			got, err := Evaluate(f, in, q)
			if err != nil {
				t.Fatalf("%s: Evaluate: %v", tag, err)
			}
			after := stats.Snapshot()
			full, err := evaluateFull(f, in, q)
			if err != nil {
				t.Fatalf("%s: evaluateFull: %v", tag, err)
			}
			if got != full || got != c.want {
				t.Errorf("%s: pruned=%v full=%v want=%v", tag, got, full, c.want)
			}
			if d := after.ClosedBounded - before.ClosedBounded; (d == 1) != c.bounded || d > 1 {
				t.Errorf("%s: ClosedBounded grew by %d, bounded should be %v", tag, d, c.bounded)
			}
			if d := after.ClosedPruned - before.ClosedPruned; d != 1 {
				t.Errorf("%s: ClosedPruned grew by %d, want 1", tag, d)
			}
		}
	}
}

// undeterminedClusters builds C(K, V) under K → V with n two-tuple
// clusters (k, 0)/(k, 1) and the conflict-free tuple (n, 2): cluster 0
// is oriented towards (0, 0), the other n-1 stay undetermined — at
// least 2^(n-1) preferred repairs in every family, all of which keep
// (n, 2).
func undeterminedClusters(t testing.TB, n int) Input {
	t.Helper()
	s := relation.MustSchema("C", relation.IntAttr("K"), relation.IntAttr("V"))
	inst := relation.NewInstance(s)
	for k := 0; k < n; k++ {
		inst.MustInsert(k, 0)
		inst.MustInsert(k, 1)
	}
	inst.MustInsert(n, 2)
	rel, err := NewRelation(inst, fd.MustParseSet(s, "K -> V"))
	if err != nil {
		t.Fatal(err)
	}
	rel.Pri.MustAdd(0, 1)
	in, err := NewInput(rel)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestBoundsGuardRail: with 40 undetermined clusters there are 2^40
// preferred repairs, and a monotone query that is false on their union
// or true on their intersection must still be answered at once. Walking
// them does not end within the deadline.
func TestBoundsGuardRail(t *testing.T) {
	stats := &EvalStats{}
	in := undeterminedClusters(t, 41).WithStats(stats)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	in = in.WithContext(ctx)
	for _, f := range core.Families {
		for _, c := range []struct {
			src  string
			want Answer
		}{
			{"EXISTS k . C(k, 1) AND k < 0", CertainlyFalse},
			{"EXISTS k, v . C(k, v)", CertainlyTrue},
			{"FORALL k, v . NOT C(k, v) OR v <= 2", CertainlyTrue},
		} {
			before := stats.Snapshot().ClosedBounded
			got, err := Evaluate(f, in, query.MustParse(c.src))
			if err != nil || got != c.want {
				t.Fatalf("%v %q = %v, %v, want %v", f, c.src, got, err, c.want)
			}
			if d := stats.Snapshot().ClosedBounded - before; d != 1 {
				t.Fatalf("%v %q: ClosedBounded grew by %d, want 1", f, c.src, d)
			}
		}
	}

	// Undecided (true on the union, false on the intersection): the
	// walk still runs, and says so.
	small := undeterminedClusters(t, 4).WithStats(stats)
	before := stats.Snapshot().ClosedBounded
	got, err := Evaluate(core.Global, small, query.MustParse("EXISTS k . C(k, 1) AND k > 0"))
	if err != nil || got != Undetermined {
		t.Fatalf("undecided query = %v, %v, want undetermined", got, err)
	}
	if d := stats.Snapshot().ClosedBounded - before; d != 0 {
		t.Fatalf("an undecided query grew ClosedBounded by %d", d)
	}
}

// TestDeclinedGuardRail: a query the support analysis declines is
// evaluated once per visited repair of the whole database, and each of
// those evaluations must cost what the query touches — here one key of
// C — not a scan of both relations to collect an active domain whose
// one needed value the query names. 4 000 two-tuple clusters (3
// undetermined: 8 preferred repairs) next to 12 000 conflict-free
// tuples; every family answers the unsafe shape about an undetermined
// key, and the four that read the priority also about a decided and an
// absent one, 25 times each, under one deadline. With a domain scan per
// visited repair the 325 requests took 22 s, seven times the deadline;
// without, 0.07 s, and 0.3 s under the race detector.
func TestDeclinedGuardRail(t *testing.T) {
	const n = 4000
	sc := relation.MustSchema("C", relation.IntAttr("K"), relation.IntAttr("V"))
	c := relation.NewInstance(sc)
	for k := 0; k < n; k++ {
		c.MustInsert(k, 0)
		c.MustInsert(k, 1)
	}
	relC, err := NewRelation(c, fd.MustParseSet(sc, "K -> V"))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n-3; k++ {
		relC.Pri.MustAdd(2*k, 2*k+1)
	}
	sd := relation.MustSchema("D", relation.IntAttr("K"), relation.NameAttr("N"))
	d := relation.NewInstance(sd)
	for k := 0; k < 3*n; k++ {
		d.MustInsert(k, fmt.Sprintf("n%d", k))
	}
	relD, err := NewRelation(d, fd.MustParseSet(sd, "K -> N"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInput(relC, relD)
	if err != nil {
		t.Fatal(err)
	}
	stats := &EvalStats{}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	in = in.WithStats(stats).WithContext(ctx)
	start := time.Now()
	for _, f := range core.Families {
		for _, q := range []struct {
			src  string
			want Answer
		}{
			{fmt.Sprintf("EXISTS x . x = %d AND NOT C(x, 0)", n-1), Undetermined},
			{"EXISTS x . x = 7 AND NOT C(x, 0)", CertainlyFalse}, // all 8 repairs visited
			{fmt.Sprintf("EXISTS x . x = %d AND NOT C(x, 0)", n), CertainlyTrue},
		} {
			if f == core.Rep && q.want != Undetermined {
				continue // Rep ignores the priority: 2^4000 repairs to agree on
			}
			expr := query.MustParse(q.src)
			for i := 0; i < 25; i++ {
				before := stats.Snapshot()
				got, err := Evaluate(f, in, expr)
				if err != nil || got != q.want {
					t.Fatalf("%v %q, request %d after %v = %v, %v; want %v", f, q.src, i, time.Since(start), got, err, q.want)
				}
				after := stats.Snapshot()
				if df, dp := after.ClosedFull-before.ClosedFull, after.ClosedPruned-before.ClosedPruned; df != 1 || dp != 0 {
					t.Fatalf("%v %q: ClosedFull +%d ClosedPruned +%d, want +1 +0", f, q.src, df, dp)
				}
			}
		}
	}
	t.Logf("325 declined requests in %v", time.Since(start))
}

// TestBoundsHonourCancellation: a bound evaluation is an evaluation
// like the walk's, so a cancelled context ends it with ctx.Err() and
// nothing is counted as decided.
func TestBoundsHonourCancellation(t *testing.T) {
	stats := &EvalStats{}
	in := undeterminedClusters(t, 6).WithStats(stats)
	q := query.MustParse("EXISTS k, v . C(k, v) AND v > 2")
	if a, err := Evaluate(core.Global, in, q); err != nil || a != CertainlyFalse {
		t.Fatalf("warm-up = %v, %v", a, err) // also builds the version's Resolved
	}
	before := stats.Snapshot().ClosedBounded
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := evaluateClosed(core.Global, in.WithContext(ctx), query.Analyze(q)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled bound evaluation: err=%v, want context.Canceled", err)
	}
	if d := stats.Snapshot().ClosedBounded - before; d != 0 {
		t.Fatalf("a cancelled evaluation grew ClosedBounded by %d", d)
	}
}
