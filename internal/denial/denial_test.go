package denial

import (
	"math/rand"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
	"prefcqa/internal/fd"
	"prefcqa/internal/query"
	"prefcqa/internal/relation"
)

func abSchema() *relation.Schema {
	return relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
}

func TestParseConstraint(t *testing.T) {
	s := abSchema()
	c, err := Parse(s, "R(x1, y1) AND R(x2, y2) AND x1 = x2 AND y1 != y2")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Atoms) != 2 || c.Cond == nil {
		t.Fatalf("parsed constraint: %+v", c)
	}
	if c.String() == "" {
		t.Fatal("String should render")
	}
}

func TestParseConstraintErrors(t *testing.T) {
	s := abSchema()
	bad := []string{
		"x1 = x2",            // no atoms
		"S(x, y)",            // wrong relation
		"R(x)",               // arity
		"R(x, y) OR R(a, b)", // not a conjunction
		"EXISTS x . R(x, x)", // quantified
		"NOT R(x, y)",        // negation
	}
	for _, src := range bad {
		if _, err := Parse(s, src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestFDEncodingMatchesConflictGraph(t *testing.T) {
	// The hypergraph of the FD encoding must have exactly the
	// conflict-graph edges (all binary).
	rng := rand.New(rand.NewSource(3))
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	fds := fd.MustParseSet(s, "A -> B", "B -> C")
	for iter := 0; iter < 20; iter++ {
		inst := relation.NewInstance(s)
		for i := 0; i < 7; i++ {
			inst.MustInsert(rng.Intn(3), rng.Intn(3), rng.Intn(2))
		}
		var cs []Constraint
		for _, f := range fds.All() {
			cs = append(cs, FromFD(f)...)
		}
		h, err := Build(inst, cs)
		if err != nil {
			t.Fatal(err)
		}
		g := conflict.MustBuild(inst, fds)
		if h.NumEdges() != g.NumEdges() {
			t.Fatalf("hypergraph has %d edges, conflict graph %d\n%s", h.NumEdges(), g.NumEdges(), g.ASCII())
		}
		for _, e := range h.Edges() {
			vs := e.Slice()
			if len(vs) != 2 || !g.Adjacent(vs[0], vs[1]) {
				t.Fatalf("hyperedge %v is not a conflict edge", vs)
			}
		}
	}
}

// ternary builds the 3-ary constraint "no three tuples with the same
// A sum... simpler: no three distinct tuples share the same A value"
// — a genuine hyperedge of size 3.
func ternaryScenario(t *testing.T) (*Hypergraph, *relation.Instance) {
	t.Helper()
	s := abSchema()
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1) // 0
	inst.MustInsert(1, 2) // 1
	inst.MustInsert(1, 3) // 2
	inst.MustInsert(2, 4) // 3
	c := MustParse(s, `R(x1,y1) AND R(x2,y2) AND R(x3,y3)
		AND x1 = x2 AND x2 = x3 AND y1 < y2 AND y2 < y3`)
	h, err := Build(inst, []Constraint{c})
	if err != nil {
		t.Fatal(err)
	}
	return h, inst
}

func TestTernaryHyperedge(t *testing.T) {
	h, _ := ternaryScenario(t)
	if h.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", h.NumEdges())
	}
	if !h.Edges()[0].Equal(bitset.FromSlice([]int{0, 1, 2})) {
		t.Fatalf("edge = %v", h.Edges()[0])
	}
	// Repairs: drop any one of {0,1,2}; tuple 3 always stays.
	reps := All(h)
	if len(reps) != 3 {
		t.Fatalf("repairs = %v, want 3", reps)
	}
	for _, r := range reps {
		if !r.Has(3) || r.Len() != 3 {
			t.Fatalf("unexpected repair %v", r)
		}
		if !h.IsRepair(r) {
			t.Fatalf("enumerated non-repair %v", r)
		}
	}
	if c, err := Count(h); err != nil || c != 3 {
		t.Fatalf("Count = %d, %v", c, err)
	}
}

func TestEnumerateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := abSchema()
	c2 := MustParse(s, "R(x1,y1) AND R(x2,y2) AND x1 = x2 AND y1 != y2")
	c3 := MustParse(s, `R(x1,y1) AND R(x2,y2) AND R(x3,y3)
		AND y1 = y2 AND y2 = y3 AND x1 < x2 AND x2 < x3`)
	for iter := 0; iter < 25; iter++ {
		inst := relation.NewInstance(s)
		for i := 0; i < 6; i++ {
			inst.MustInsert(rng.Intn(4), rng.Intn(3))
		}
		h, err := Build(inst, []Constraint{c2, c3})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		Enumerate(h, func(r *bitset.Set) bool {
			got[r.Key()] = true
			return true
		})
		want := map[string]bool{}
		n := h.Len()
		for mask := 0; mask < 1<<uint(n); mask++ {
			set := bitset.New(n)
			for v := 0; v < n; v++ {
				if mask&(1<<uint(v)) != 0 {
					set.Add(v)
				}
			}
			if h.IsRepair(set) {
				want[set.Key()] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: enumerated %d repairs, brute force %d", iter, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("iter %d: missing repair", iter)
			}
		}
	}
}

func TestSelfConflictingTuple(t *testing.T) {
	// A unary denial constraint: no tuple with negative B.
	s := abSchema()
	inst := relation.NewInstance(s)
	inst.MustInsert(1, -5) // 0: violates alone
	inst.MustInsert(2, 3)  // 1
	c := MustParse(s, "R(x, y) AND y < 0")
	h, err := Build(inst, []Constraint{c})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 1 || h.Edges()[0].Len() != 1 {
		t.Fatalf("expected one unary edge, got %v", h.Edges())
	}
	reps := All(h)
	if len(reps) != 1 || !reps[0].Equal(bitset.FromSlice([]int{1})) {
		t.Fatalf("repairs = %v", reps)
	}
	// The self-conflicting tuple is certainly absent.
	ok, err := GroundQFCertain(h, query.MustParse("NOT R(1, -5)"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("self-conflicting tuple should be certainly absent")
	}
}

func TestMinimalEdgesOnly(t *testing.T) {
	// Constraint pair where one violation set contains another: only
	// the minimal one is kept.
	s := abSchema()
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1) // 0
	inst.MustInsert(1, 2) // 1
	c2 := MustParse(s, "R(x1,y1) AND R(x2,y2) AND x1 = x2 AND y1 != y2")
	c1 := MustParse(s, "R(x, y) AND y > 50") // no violations
	h, err := Build(inst, []Constraint{c2, c1})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 1 {
		t.Fatalf("edges = %d", h.NumEdges())
	}
}

func TestGroundQFCertainAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := abSchema()
	c2 := MustParse(s, "R(x1,y1) AND R(x2,y2) AND x1 = x2 AND y1 != y2")
	c3 := MustParse(s, `R(x1,y1) AND R(x2,y2) AND R(x3,y3)
		AND y1 = y2 AND y2 = y3 AND x1 < x2 AND x2 < x3`)
	for iter := 0; iter < 60; iter++ {
		inst := relation.NewInstance(s)
		for i := 0; i < 6; i++ {
			inst.MustInsert(rng.Intn(3), rng.Intn(3))
		}
		h, err := Build(inst, []Constraint{c2, c3})
		if err != nil {
			t.Fatal(err)
		}
		q := randomGroundQuery(rng, inst, 2)
		fast, err := GroundQFCertain(h, q)
		if err != nil {
			t.Fatal(err)
		}
		// Naive: evaluate on every repair.
		db := relation.NewDatabase()
		if err := db.AddInstance(inst); err != nil {
			t.Fatal(err)
		}
		naive := true
		Enumerate(h, func(r *bitset.Set) bool {
			v, err2 := query.Eval(q, query.DBModel{DB: db, Subsets: map[string]*bitset.Set{"R": r}})
			if err2 != nil {
				t.Fatal(err2)
			}
			if !v {
				naive = false
				return false
			}
			return true
		})
		if fast != naive {
			t.Fatalf("iter %d: fast=%v naive=%v for %s", iter, fast, naive, q)
		}
	}
}

func randomGroundQuery(rng *rand.Rand, inst *relation.Instance, depth int) query.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		var tup relation.Tuple
		if inst.Len() > 0 && rng.Intn(4) != 0 {
			tup = inst.Tuple(rng.Intn(inst.Len()))
		} else {
			tup = relation.Tuple{relation.Int(int64(rng.Intn(4))), relation.Int(int64(rng.Intn(4)))}
		}
		args := make([]query.Term, len(tup))
		for i, v := range tup {
			args[i] = query.Const{Value: v}
		}
		a := query.Atom{Rel: inst.Schema().Name(), Args: args}
		if rng.Intn(2) == 0 {
			return query.Not{Body: a}
		}
		return a
	}
	l := randomGroundQuery(rng, inst, depth-1)
	r := randomGroundQuery(rng, inst, depth-1)
	if rng.Intn(2) == 0 {
		return query.And{L: l, R: r}
	}
	return query.Or{L: l, R: r}
}

func TestGroundQFCertainRejectsQuantified(t *testing.T) {
	h, _ := ternaryScenario(t)
	if _, err := GroundQFCertain(h, query.MustParse("EXISTS x . R(x, 1)")); err == nil {
		t.Fatal("quantified query should be rejected")
	}
}

func TestGroundQFComparisonShortCircuit(t *testing.T) {
	h, _ := ternaryScenario(t)
	ok, err := GroundQFCertain(h, query.MustParse("1 < 2"))
	if err != nil || !ok {
		t.Fatalf("tautology: %v, %v", ok, err)
	}
	ok, err = GroundQFCertain(h, query.MustParse("2 < 1"))
	if err != nil || ok {
		t.Fatalf("contradiction: %v, %v", ok, err)
	}
}

// TestBuildWithTombstones pins that the hypergraph handles instances
// with deleted tuples: the universe is sized by NumIDs, tombstones
// join no component, and repairs are subsets of the live instance.
func TestBuildWithTombstones(t *testing.T) {
	s := abSchema()
	inst := relation.NewInstance(s)
	a := inst.MustInsert(1, 1)
	b := inst.MustInsert(1, 2)
	c := inst.MustInsert(2, 5)
	cons, err := Parse(s, "R(x1, y1) AND R(x2, y2) AND x1 = x2 AND y1 != y2")
	if err != nil {
		t.Fatal(err)
	}
	inst.Delete(a)
	h, err := Build(inst, []Constraint{cons})
	if err != nil {
		t.Fatalf("Build on tombstoned instance: %v", err)
	}
	if h.NumEdges() != 0 {
		t.Fatalf("edges = %d, want 0 (the conflict partner is deleted)", h.NumEdges())
	}
	comps := h.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %v, want two live singletons", comps)
	}
	for _, comp := range comps {
		for _, v := range comp {
			if v == a {
				t.Fatalf("tombstone %d appears in components %v", a, comps)
			}
		}
	}
	if h.IsRepair(bitset.FromSlice([]int{a, b, c})) {
		t.Fatal("set containing a tombstone accepted as repair")
	}
	if !h.IsRepair(bitset.FromSlice([]int{b, c})) {
		t.Fatal("live set rejected as repair")
	}
	n, err := Count(h)
	if err != nil || n != 1 {
		t.Fatalf("Count = %d, %v; want 1", n, err)
	}
}
