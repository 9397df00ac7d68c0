package cqa

import (
	"fmt"
	"math/rand"
	"testing"

	"prefcqa/internal/core"
	"prefcqa/internal/fd"
	"prefcqa/internal/priority"
	"prefcqa/internal/query"
	"prefcqa/internal/relation"
)

// randomGroundInput builds a random single-relation input over
// R(A,B,C) with two FDs.
func randomGroundInput(t testing.TB, rng *rand.Rand, n int) Input {
	t.Helper()
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	inst := relation.NewInstance(s)
	for i := 0; i < n; i++ {
		inst.MustInsert(rng.Intn(3), rng.Intn(3), rng.Intn(3))
	}
	rel, err := NewRelation(inst, fd.MustParseSet(s, "A -> B", "B -> C"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInput(rel)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// randomGroundQuery builds a random ground Boolean combination of
// atoms over the instance's tuples (present and absent) plus ground
// comparisons — including order comparisons on names, which exercise
// the partial-order literal handling.
func randomGroundQuery(rng *rand.Rand, inst *relation.Instance, depth int) query.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(5) == 0 {
			ops := []query.CmpOp{query.EQ, query.NE, query.LT, query.LE, query.GT, query.GE}
			op := ops[rng.Intn(len(ops))]
			mk := func() query.Term {
				// Name constants are only well-typed under equality
				// (Validate rejects order comparisons on names).
				if (op == query.EQ || op == query.NE) && rng.Intn(4) == 0 {
					return query.Const{Value: relation.Name("n")}
				}
				return query.Const{Value: relation.Int(int64(rng.Intn(3)))}
			}
			var c query.Expr = query.Cmp{Op: op, L: mk(), R: mk()}
			if rng.Intn(2) == 0 {
				c = query.Not{Body: c}
			}
			return c
		}
		var tup relation.Tuple
		if inst.Len() > 0 && rng.Intn(4) != 0 {
			tup = inst.Tuple(rng.Intn(inst.Len()))
		} else {
			tup = relation.Tuple{
				relation.Int(int64(rng.Intn(4))),
				relation.Int(int64(rng.Intn(4))),
				relation.Int(int64(rng.Intn(4))),
			}
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
	switch rng.Intn(3) {
	case 0:
		return query.And{L: l, R: r}
	case 1:
		return query.Or{L: l, R: r}
	default:
		return query.Not{Body: query.And{L: l, R: r}}
	}
}

// TestGroundQFAgainstNaive cross-validates the PTIME ground CQA
// algorithm against exhaustive repair enumeration on random inputs
// and random ground queries.
func TestGroundQFAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	for iter := 0; iter < 150; iter++ {
		in := randomGroundInput(t, rng, 5+rng.Intn(5))
		q := randomGroundQuery(rng, in.Rels[0].Inst, 2)

		naive, err := evaluateFull(core.Rep, in, q)
		if err != nil {
			t.Fatalf("naive: %v on %s", err, q)
		}
		fast, err := GroundQFEvaluate(in, q)
		if err != nil {
			t.Fatalf("fast: %v on %s", err, q)
		}
		if naive != fast {
			t.Fatalf("iter %d: naive=%v fast=%v for %s\n%s",
				iter, naive, fast, q, in.Rels[0].Pri.Graph().ASCII())
		}
	}
}

// TestGroundPrunedAgainstFull cross-validates the component-pruned
// evaluation of random ground queries against full enumeration for all
// families; every one of them must be answered pruned.
func TestGroundPrunedAgainstFull(t *testing.T) {
	rng := rand.New(rand.NewSource(2029))
	for iter := 0; iter < 60; iter++ {
		in := randomGroundInput(t, rng, 5+rng.Intn(4))
		// Randomize priorities too.
		in.Rels[0].Pri = priority.Random(in.Rels[0].Pri.Graph(), 0.5, rng)
		q := randomGroundQuery(rng, in.Rels[0].Inst, 2)
		for _, f := range core.Families {
			full, err := evaluateFull(f, in, q)
			if err != nil {
				t.Fatal(err)
			}
			stats := &EvalStats{}
			pruned, err := evaluateClosed(f, in.WithStats(stats), query.Analyze(q))
			if err != nil {
				t.Fatal(err)
			}
			if snap := stats.Snapshot(); snap.ClosedPruned != 1 || snap.ClosedFull != 0 {
				t.Fatalf("iter %d %v: %s answered with %+v, want the pruned walk alone", iter, f, q, snap)
			}
			if full != pruned {
				t.Fatalf("iter %d %v: full=%v pruned=%v for %s", iter, f, full, pruned, q)
			}
		}
	}
}

func TestGroundWitnessCoverage(t *testing.T) {
	// A case exercising the witness search: query NOT t for a tuple t
	// whose exclusion requires picking a conflicting witness that
	// itself conflicts other witnesses.
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1) // 0
	inst.MustInsert(1, 2) // 1
	inst.MustInsert(1, 3) // 2 — triangle on key A
	rel, err := NewRelation(inst, fd.MustParseSet(s, "A -> B"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInput(rel)
	if err != nil {
		t.Fatal(err)
	}
	// "NOT R(1,1) AND NOT R(1,2)" — excluded together iff some repair
	// avoids both: repair {(1,3)} does.
	ok, err := GroundQFCertain(in, query.MustParse("R(1,1) OR R(1,2)"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("R(1,1) OR R(1,2) is not certain (repair {(1,3)} avoids both)")
	}
	// "R(1,1) OR R(1,2) OR R(1,3)" — every repair keeps exactly one.
	ok, err = GroundQFCertain(in, query.MustParse("R(1,1) OR R(1,2) OR R(1,3)"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("one of the three must be in every repair")
	}
}

func TestGroundComparisonOnly(t *testing.T) {
	in := randomGroundInput(t, rand.New(rand.NewSource(1)), 4)
	for _, c := range []struct {
		src  string
		want bool
	}{
		{"1 < 2", true},
		{"2 < 1", false},
		{"'a' = 'a'", true},
		{"1 = 1 AND 2 >= 2", true},
	} {
		got, err := GroundQFCertain(in, query.MustParse(c.src))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("GroundQFCertain(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestGroundUnknownRelation(t *testing.T) {
	in := randomGroundInput(t, rand.New(rand.NewSource(2)), 3)
	if _, err := GroundQFCertain(in, query.MustParse("Nope(1)")); err == nil {
		t.Fatal("unknown relation should error")
	}
}

func ExampleGroundQFEvaluate() {
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1)
	inst.MustInsert(1, 2)
	rel, _ := NewRelation(inst, fd.MustParseSet(s, "A -> B"))
	in, _ := NewInput(rel)
	a, _ := GroundQFEvaluate(in, query.MustParse("R(1,1) OR R(1,2)"))
	fmt.Println(a)
	// Output: true
}
