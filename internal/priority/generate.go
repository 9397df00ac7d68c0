package priority

import (
	"fmt"
	"math/rand"

	"prefcqa/internal/conflict"
	"prefcqa/internal/relation"
)

// FromRanks orients every conflict edge whose endpoints have strictly
// different ranks, preferring the tuple with the *smaller* rank (rank
// 0 = most reliable). Edges between equally ranked tuples stay
// unoriented. This models the data-cleaning inputs of §1: source
// reliability and tuple timestamps both induce rank functions.
// The result is always acyclic because every ≻-edge strictly
// decreases rank along its direction.
func FromRanks(g *conflict.Graph, rank func(relation.TupleID) int) *Priority {
	pairs := make([][2]relation.TupleID, 0, g.NumEdges())
	for _, e := range g.Edges() {
		ra, rb := rank(e.A), rank(e.B)
		switch {
		case ra < rb:
			pairs = append(pairs, [2]relation.TupleID{e.A, e.B})
		case rb < ra:
			pairs = append(pairs, [2]relation.TupleID{e.B, e.A})
		}
	}
	return build(g, pairs)
}

// Random orients each conflict edge independently with probability
// density, directions drawn from a random linear order on tuples so
// the result is acyclic. density 0 gives the empty priority, 1 a
// total one.
func Random(g *conflict.Graph, density float64, rng *rand.Rand) *Priority {
	perm := rng.Perm(g.Len())
	rank := make([]int, g.Len())
	for i, v := range perm {
		rank[v] = i
	}
	var pairs [][2]relation.TupleID
	for _, e := range g.Edges() {
		if rng.Float64() >= density {
			continue
		}
		x, y := e.A, e.B
		if rank[x] > rank[y] {
			x, y = y, x
		}
		pairs = append(pairs, [2]relation.TupleID{x, y})
	}
	return build(g, pairs)
}

// AllTotalExtensions enumerates every total priority extending p, by
// trying both orientations of each unoriented edge and keeping the
// acyclic outcomes. Exponential in the number of unoriented edges;
// intended for exhaustive verification on small instances (it guards
// against graphs with more than maxEdges unoriented edges).
func AllTotalExtensions(p *Priority, maxEdges int) ([]*Priority, error) {
	var free [][2]relation.TupleID
	for _, e := range p.g.Edges() {
		if !p.Oriented(e.A, e.B) {
			free = append(free, [2]relation.TupleID{e.A, e.B})
		}
	}
	if len(free) > maxEdges {
		return nil, fmt.Errorf("priority: %d unoriented edges exceed limit %d", len(free), maxEdges)
	}
	var out []*Priority
	var rec func(q *Priority, i int)
	rec = func(q *Priority, i int) {
		if i == len(free) {
			out = append(out, q.Clone())
			return
		}
		x, y := free[i][0], free[i][1]
		for _, dir := range [][2]relation.TupleID{{x, y}, {y, x}} {
			// A copy shares q's persistent overlay and leaves q as it was.
			r := *q
			if err := r.Add(dir[0], dir[1]); err != nil {
				continue // would create a cycle
			}
			rec(&r, i+1)
		}
	}
	rec(p, 0)
	return out, nil
}

// ExtendableToCyclic reports whether p can be extended to a *cyclic*
// orientation of the conflict graph — the side condition of Theorem 2
// (C-Rep and G-Rep coincide when it is false). It searches for a
// directed cycle in the mixed graph whose directed edges are the
// oriented conflicts and whose undirected edges are the unoriented
// ones, traversable either way but at most once each. Exponential in
// the worst case; intended for analysis and tests.
func ExtendableToCyclic(p *Priority) bool {
	g := p.g
	n := g.Len()
	// DFS over simple paths; a cycle exists iff from some start vertex
	// we can return to it using each undirected edge at most once and
	// directed edges only forward. Path length is bounded by n, so for
	// test-scale graphs this is fine.
	edgeID := make(map[[2]int]int)
	for i, e := range g.Edges() {
		edgeID[[2]int{e.A, e.B}] = i
		edgeID[[2]int{e.B, e.A}] = i
	}
	usedEdge := make([]bool, g.NumEdges())
	var dfs func(start, v int, depth int) bool
	dfs = func(start, v, depth int) bool {
		if depth > 0 && v == start {
			// Closed directed walk with pairwise distinct edges: the
			// traversed undirected edges, oriented along the walk,
			// extend p to a cyclic orientation.
			return true
		}
		if depth >= n+1 {
			return false
		}
		found := false
		for _, w32 := range g.Neighbors(v) {
			w := int(w32)
			// Can we traverse v -> w?
			if p.Dominates(w, v) {
				continue // oriented against us
			}
			id := edgeID[[2]int{v, w}]
			if usedEdge[id] {
				continue
			}
			usedEdge[id] = true
			if dfs(start, w, depth+1) {
				found = true
			}
			usedEdge[id] = false
			if found {
				break
			}
		}
		return found
	}
	for v := 0; v < n; v++ {
		if dfs(v, v, 0) {
			return true
		}
	}
	return false
}
