package query

import (
	"math/rand"
	"testing"

	"prefcqa/internal/relation"
)

func TestHammerNNF(t *testing.T) {
	s := relation.MustSchema("R", relation.IntAttr("A"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1)
	inst.MustInsert(2)
	m := relModel(inst, nil)
	for seed := int64(0); seed < 40000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := randAST(rng, nil, 2)
		n := NNF(e)
		if NNF(n).String() != n.String() {
			t.Fatalf("seed %d: NNF not stable for %s", seed, e)
		}
		if len(FreeVars(e)) != 0 {
			continue
		}
		a, err1 := Eval(e, m)
		c, err3 := Eval(NNF(e), m)
		if err1 == nil && err3 == nil && a != c {
			t.Fatalf("seed %d: NNF changed %s: %v -> %v", seed, e, a, c)
		}
	}
}
