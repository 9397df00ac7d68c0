package cqa

import (
	"math/rand"
	"testing"

	"prefcqa/internal/core"
	"prefcqa/internal/priority"
	"prefcqa/internal/query"
)

// TestPossibleDuality verifies that q is possible (holds in some
// preferred repair: its answer is not certainly false) exactly when ¬q
// is not certain, on random inputs and queries, for every family.
func TestPossibleDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for iter := 0; iter < 40; iter++ {
		in := randomGroundInput(t, rng, 5+rng.Intn(4))
		in.Rels[0].Pri = priority.Random(in.Rels[0].Pri.Graph(), 0.5, rng)
		q := randomGroundQuery(rng, in.Rels[0].Inst, 2)
		for _, f := range core.Families {
			a, err := Evaluate(f, in, q)
			if err != nil {
				t.Fatal(err)
			}
			neg, err := Evaluate(f, in, query.Negate(q))
			if err != nil {
				t.Fatal(err)
			}
			if pos, certNeg := a != CertainlyFalse, neg == CertainlyTrue; pos == certNeg {
				t.Fatalf("iter %d %v: Possible=%v but Certain(¬q)=%v for %s",
					iter, f, pos, certNeg, q)
			}
		}
	}
}

// TestPossibleMgr checks brave answers on the paper example: each
// conflicting tuple is possible but not certain.
func TestPossibleMgr(t *testing.T) {
	in := mgrInput(t, false)
	for _, atom := range []string{
		"Mgr('Mary','R&D',40,3)",
		"Mgr('John','R&D',10,2)",
		"Mgr('Mary','IT',20,1)",
		"Mgr('John','PR',30,4)",
	} {
		a, err := Evaluate(core.Rep, in, query.MustParse(atom))
		if err != nil {
			t.Fatal(err)
		}
		if a == CertainlyFalse {
			t.Errorf("%s should be possible", atom)
		}
		if a == CertainlyTrue {
			t.Errorf("%s should not be certain", atom)
		}
	}
	// Absent tuples are not even possible.
	a, err := Evaluate(core.Rep, in, query.MustParse("Mgr('Bob','IT',1,1)"))
	if err != nil {
		t.Fatal(err)
	}
	if a != CertainlyFalse {
		t.Error("absent tuple should be impossible")
	}
}
