package priority

import (
	"fmt"
	"math/rand"
	"testing"

	"prefcqa/internal/conflict"
	"prefcqa/internal/fd"
	"prefcqa/internal/relation"
)

// addSequence is the reference FromRelation: the kept pairs added one
// by one through Add, stopping at the first error.
func addSequence(g *conflict.Graph, pairs [][2]relation.TupleID) (*Priority, error) {
	p := New(g)
	for _, pr := range pairs {
		if !g.Adjacent(pr[0], pr[1]) {
			continue
		}
		if err := p.Add(pr[0], pr[1]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// sameAsAddSequence reports how FromRelation's outcome differs from
// the reference's: the error text, or the oriented pairs, the count and
// every vertex's dominator and dominated rows; "" when they agree.
func sameAsAddSequence(g *conflict.Graph, pairs [][2]relation.TupleID) string {
	got, gerr := FromRelation(g, pairs)
	want, werr := addSequence(g, pairs)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Sprintf("error %v, want %v", gerr, werr)
	}
	if werr != nil {
		return ""
	}
	if fmt.Sprint(got.Edges()) != fmt.Sprint(want.Edges()) || got.Len() != want.Len() {
		return fmt.Sprintf("edges %v (%d), want %v (%d)", got.Edges(), got.Len(), want.Edges(), want.Len())
	}
	for v := 0; v < g.Len(); v++ {
		if fmt.Sprint(got.Dominators(v), got.Dominated(v)) != fmt.Sprint(want.Dominators(v), want.Dominated(v)) {
			return fmt.Sprintf("tuple %d: rows %v %v, want %v %v", v,
				got.Dominators(v), got.Dominated(v), want.Dominators(v), want.Dominated(v))
		}
	}
	return ""
}

// randomPairs draws k preference pairs over g's tuples: conflict edges
// in a random direction (so opposite orientations and cycles arise),
// repeats of earlier pairs, self pairs, non-conflicting pairs and IDs
// outside the graph. With acyclic set, every conflict edge follows one
// random linear order, so only repeats and the ignored pairs remain.
func randomPairs(rng *rand.Rand, g *conflict.Graph, k int, acyclic bool) [][2]relation.TupleID {
	edges := g.Edges()
	rank := rng.Perm(g.Len())
	var out [][2]relation.TupleID
	for len(out) < k {
		switch r := rng.Intn(10); {
		case r < 6 && len(edges) > 0:
			e := edges[rng.Intn(len(edges))]
			x, y := e.A, e.B
			if acyclic && rank[x] > rank[y] || !acyclic && rng.Intn(2) == 0 {
				x, y = y, x
			}
			out = append(out, [2]relation.TupleID{x, y})
		case r < 7 && len(out) > 0:
			out = append(out, out[rng.Intn(len(out))])
		case r < 8:
			v := rng.Intn(g.Len())
			out = append(out, [2]relation.TupleID{v, v})
		case r < 9:
			out = append(out, [2]relation.TupleID{rng.Intn(g.Len()), rng.Intn(g.Len())})
		default:
			out = append(out, [2]relation.TupleID{rng.Intn(g.Len()+4) - 2, g.Len() + rng.Intn(3)})
		}
	}
	return out
}

// TestFromRelationMatchesAddSequence holds the bulk builder to the
// pair-by-pair reference on random graphs (cliques of up to four
// tuples, so cycles of length three and four can be formed) and random
// pair lists, acyclic and not, with repeats, self pairs and pairs the
// priority ignores.
func TestFromRelationMatchesAddSequence(t *testing.T) {
	failures, successes := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graphFromSeed(seed, 4+rng.Intn(12))
		pairs := randomPairs(rng, g, rng.Intn(20), seed%2 == 0)
		if msg := sameAsAddSequence(g, pairs); msg != "" {
			t.Fatalf("seed %d, pairs %v: %s", seed, pairs, msg)
		}
		if _, err := addSequence(g, pairs); err != nil {
			failures++
		} else {
			successes++
		}
	}
	// Both outcomes must be exercised, or the comparison shows little.
	if failures < 50 || successes < 50 {
		t.Fatalf("%d failing and %d accepted pair lists, want at least 50 of each", failures, successes)
	}
}

// FuzzFromRelation compares the bulk builder with the pair-by-pair
// reference on fuzzed graphs and pair lists. The first byte sizes the
// instance R(A, B) under A -> B (one more tuple than its value, modulo
// ten), the next two per tuple give its values, and every later byte pair is a preference, read as signed so
// that IDs outside the graph occur too.
func FuzzFromRelation(f *testing.F) {
	f.Add([]byte{2, 1, 0, 1, 1, 1, 2, 0, 1, 1, 2, 2, 0})       // a 3-cycle
	f.Add([]byte{2, 1, 0, 1, 1, 1, 2, 0, 1, 0, 1, 1, 0})       // a repeat, then the opposite
	f.Add([]byte{3, 0, 0, 0, 1, 1, 0, 1, 1, 0, 1, 2, 3, 2, 2}) // two clusters, a self pair
	f.Add([]byte{1, 0, 0, 1, 0, 0, 1, 255, 4})                 // no conflict at all
	f.Add([]byte{2, 1, 0, 1, 1, 1, 2, 0, 1, 1, 0, 1, 2, 2, 0}) // the opposite, then a cycle
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%10 + 1
		data = data[1:]
		if len(data) < 2*n {
			return
		}
		s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
		inst := relation.NewInstance(s)
		for i := 0; i < n; i++ {
			inst.InsertValues(int(data[2*i])%3, int(data[2*i+1])%3) //nolint:errcheck // a repeated tuple is merged
		}
		g := conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B"))
		data = data[2*n:]
		var pairs [][2]relation.TupleID
		for i := 0; i+1 < len(data); i += 2 {
			pairs = append(pairs, [2]relation.TupleID{int(int8(data[i])), int(int8(data[i+1]))})
		}
		if msg := sameAsAddSequence(g, pairs); msg != "" {
			t.Fatalf("pairs %v over %d tuples: %s", pairs, g.Len(), msg)
		}
	})
}

// TestFromRelationAllocations pins the bulk builder's cost: 90 000
// preferences over 100 000 two-tuple clusters are laid out and checked
// with a fixed number of allocations — not a cycle search, or a row
// append, per pair. One contradicting pair more costs a replay of its
// own component only, not of all 90 000 pairs.
func TestFromRelationAllocations(t *testing.T) {
	const clusters, prefs = 100_000, 90_000
	s := relation.MustSchema("R", relation.IntAttr("K"), relation.IntAttr("V"))
	inst := relation.NewInstance(s)
	for k := 0; k < clusters; k++ {
		inst.MustInsert(k, 0)
		inst.MustInsert(k, 1)
	}
	g := conflict.MustBuild(inst, fd.MustParseSet(s, "K -> V"))
	g.ComponentOf(0) // the component index is the graph's, not the build's
	pairs := make([][2]relation.TupleID, prefs, prefs+1)
	for k := range pairs {
		pairs[k] = [2]relation.TupleID{2 * k, 2*k + 1}
	}
	allocs := testing.AllocsPerRun(3, func() {
		p, err := FromRelation(g, pairs)
		if err != nil || p.Len() != prefs {
			t.Fatalf("FromRelation: %v, %d pairs", err, p.Len())
		}
	})
	contradicted := append(pairs, [2]relation.TupleID{35, 34})
	const want = "priority: conflict {35,34} already oriented 34 ≻ 35"
	failing := testing.AllocsPerRun(3, func() {
		if _, err := FromRelation(g, contradicted); fmt.Sprint(err) != want {
			t.Fatalf("FromRelation with a contradiction: %v, want %s", err, want)
		}
	})
	t.Logf("FromRelation of %d pairs over %d tuples: %.0f objects; with one contradiction more: %.0f", prefs, g.Len(), allocs, failing)
	if allocs > 16 || failing > 64 {
		t.Fatalf("FromRelation allocates %.0f objects for %d pairs and %.0f with one contradiction more, want at most 16 and 64", allocs, prefs, failing)
	}
}
