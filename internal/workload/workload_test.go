package workload

import (
	"context"
	"math/rand"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/core"
)

func TestPairsShape(t *testing.T) {
	for _, n := range []int{1, 4, 10} {
		sc := Pairs(n)
		g := sc.Graph()
		if g.Len() != 2*n || g.NumEdges() != n {
			t.Fatalf("Pairs(%d): %d vertices, %d edges", n, g.Len(), g.NumEdges())
		}
		if got := len(g.Components()); got != n {
			t.Fatalf("Pairs(%d): %d components", n, got)
		}
		c, err := core.Sequential().CountCtx(context.Background(), core.Rep, sc.Pri)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(1) << uint(n); c != want {
			t.Fatalf("Pairs(%d): %d repairs, want %d", n, c, want)
		}
	}
}

func TestChainShape(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9} {
		sc := Chain(n)
		g := sc.Graph()
		if g.Len() != n || g.NumEdges() != n-1 {
			t.Fatalf("Chain(%d): %d vertices, %d edges\n%s", n, g.Len(), g.NumEdges(), g.ASCII())
		}
		// Exactly the path edges.
		for i := 0; i+1 < n; i++ {
			if !g.Adjacent(i, i+1) {
				t.Fatalf("Chain(%d): missing edge %d-%d", n, i, i+1)
			}
		}
		for i := 0; i+2 < n; i++ {
			if g.Adjacent(i, i+2) {
				t.Fatalf("Chain(%d): chord %d-%d", n, i, i+2)
			}
		}
		if n > 1 && !sc.Pri.IsTotal() {
			t.Fatalf("Chain(%d): chain priority should be total", n)
		}
	}
}

func TestChainMatchesExample9Families(t *testing.T) {
	// Chain(5) behaves like the printed Example 9: categorical for
	// S, G, C with the odd-position repair {0,2,4}.
	sc := Chain(5)
	want := bitset.FromSlice([]int{0, 2, 4})
	for _, f := range []core.Family{core.SemiGlobal, core.Global, core.Common} {
		fam := core.All(f, sc.Pri)
		if len(fam) != 1 || !fam[0].Equal(want) {
			t.Fatalf("Chain(5) %v = %v, want [{0 2 4}]", f, fam)
		}
	}
}

func TestClustersShape(t *testing.T) {
	sc := Clusters(3, 4)
	g := sc.Graph()
	if g.Len() != 12 {
		t.Fatalf("vertices = %d", g.Len())
	}
	if got := len(g.Components()); got != 3 {
		t.Fatalf("components = %d", got)
	}
	// Each component is a 4-clique: 6 edges each.
	if g.NumEdges() != 18 {
		t.Fatalf("edges = %d, want 18", g.NumEdges())
	}
	c, err := core.Sequential().CountCtx(context.Background(), core.Rep, sc.Pri)
	if err != nil {
		t.Fatal(err)
	}
	if c != 64 { // 4^3
		t.Fatalf("repairs = %d, want 64", c)
	}
}

func TestBipartiteShape(t *testing.T) {
	sc := Example9Mutual()
	g := sc.Graph()
	if g.NumEdges() != 6 {
		t.Fatalf("K_{2,3} should have 6 edges, got %d\n%s", g.NumEdges(), g.ASCII())
	}
	reps := core.All(core.Rep, sc.Pri)
	if len(reps) != 2 {
		t.Fatalf("repairs = %v, want the two sides", reps)
	}
	evens := bitset.FromSlice([]int{0, 2, 4})
	odds := bitset.FromSlice([]int{1, 3})
	for _, r := range reps {
		if !r.Equal(evens) && !r.Equal(odds) {
			t.Fatalf("unexpected repair %v", r)
		}
	}
}

func TestChainBipartiteReconstructsExample9(t *testing.T) {
	sc := Example9Mutual()
	evens := bitset.FromSlice([]int{0, 2, 4})
	s := core.All(core.SemiGlobal, sc.Pri)
	if len(s) != 2 {
		t.Fatalf("S-Rep = %v, want both sides (non-categorical)", s)
	}
	for _, f := range []core.Family{core.Global, core.Common} {
		fam := core.All(f, sc.Pri)
		if len(fam) != 1 || !fam[0].Equal(evens) {
			t.Fatalf("%v = %v, want [{0 2 4}]", f, fam)
		}
	}
}

func TestExample7And8Scenarios(t *testing.T) {
	e7 := Example7()
	if got := len(core.All(core.Local, e7.Pri)); got != 1 {
		t.Fatalf("Example7 L-Rep = %d, want 1", got)
	}
	e8 := Example8()
	if got := len(core.All(core.Local, e8.Pri)); got != 2 {
		t.Fatalf("Example8 L-Rep = %d, want 2", got)
	}
	if got := len(core.All(core.SemiGlobal, e8.Pri)); got != 1 {
		t.Fatalf("Example8 S-Rep = %d, want 1", got)
	}
}

func TestExample9Scenario(t *testing.T) {
	sc := Example9()
	if got := len(core.All(core.Rep, sc.Pri)); got != 4 {
		t.Fatalf("Example9 as printed has %d repairs, want 4", got)
	}
	if !sc.Pri.IsTotal() {
		t.Fatal("Example9 priority should be total")
	}
}

func TestRandomScenario(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := Random(rng, 20, 3, 0.5)
	if sc.Inst.Len() == 0 || sc.Inst.Len() > 20 {
		t.Fatalf("size = %d", sc.Inst.Len())
	}
	if sc.Graph().Len() != sc.Inst.Len() {
		t.Fatal("graph/instance size mismatch")
	}
}

func TestChainPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Chain(0) should panic")
		}
	}()
	Chain(0)
}
