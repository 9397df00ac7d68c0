// Package priority implements the preference input of the paper
// (§2.2): a priority ≻ is an acyclic binary relation defined only on
// conflicting tuples — equivalently, an acyclic orientation of part of
// the conflict graph. The package provides incremental acyclicity
// checking, the extension order on priorities, total extensions, the
// winnow operator ω≻ used by Algorithm 1, and priority generators for
// the motivating scenarios (source reliability, timestamps, ranking).
//
// Because ≻ only orients conflict edges, each tuple's successor and
// predecessor lists are bounded by its conflict degree: the relation
// is stored as per-vertex sorted slices, O(n + m) memory in total,
// mirroring the conflict graph's CSR representation.
//
// Priorities participate in the delta-maintenance version model of
// the conflict package: Rebase forks a priority onto a new graph
// version as a copy-on-write child (base rows shared, touched rows in
// a persistent overlay the child shares with its parent), so point
// mutations — DropVertex on a delete, Add on a new preference — cost
// O(touched rows · log n) instead of regenerating the priority from
// scratch, and the fork itself costs nothing that grows with either.
package priority

import (
	"fmt"
	"math/rand"
	"sort"

	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
	"prefcqa/internal/pmap"
	"prefcqa/internal/relation"
)

// Priority is an acyclic orientation of a subset of the conflict
// edges. x ≻ y ("x dominates y") means the user prefers to resolve
// the conflict {x, y} by keeping x.
type Priority struct {
	g *conflict.Graph
	// Base rows: succ[x] = {y : x ≻ y}, pred[y] = {x : x ≻ y}, sorted
	// ascending. On a copy-on-write child (cow == true) the base is
	// shared with the parent and must not be written; over holds this
	// version's replacement rows, including rows of vertices beyond
	// the base arrays (post-fork inserts).
	succ [][]int32
	pred [][]int32
	over pmap.Map[prow]
	cow  bool
	n    int // number of oriented edges
}

// prow is one vertex's replacement successor/predecessor rows. Either
// slice may be shared with the base or with an earlier version; rows
// are never mutated in place, only replaced by fresh copies.
type prow struct {
	succ, pred []int32
}

// New returns the empty priority over the graph (no edge oriented).
func New(g *conflict.Graph) *Priority {
	n := g.Len()
	return &Priority{g: g, succ: make([][]int32, n), pred: make([][]int32, n)}
}

// Graph returns the conflict graph the priority orients.
func (p *Priority) Graph() *conflict.Graph { return p.g }

// row resolves a vertex's successor/predecessor rows through the
// overlay.
func (p *Priority) row(v relation.TupleID) prow {
	if r, ok := p.over.Get(v); ok {
		return r
	}
	if v >= 0 && v < len(p.succ) {
		return prow{succ: p.succ[v], pred: p.pred[v]}
	}
	return prow{}
}

// succs returns {y : v ≻ y} as a sorted read-only view.
func (p *Priority) succs(v relation.TupleID) []int32 { return p.row(v).succ }

// preds returns {x : x ≻ v} as a sorted read-only view.
func (p *Priority) preds(v relation.TupleID) []int32 { return p.row(v).pred }

// Rebase forks p onto a (newer) graph version as a copy-on-write
// child: base rows and the overlay are shared — the overlay is a
// persistent map, so the fork is a struct copy — and subsequent
// Add/DropVertex calls patch only the touched rows. The receiver is
// left untouched and remains the consistent view of the old version.
// Once the overlay outgrows its bound, the fork instead flattens into
// fresh private base arrays (O(n), amortized O(1) per mutation), so a
// long mutation stream keeps all but a bounded share of its row reads
// on the flat arrays and holds a bounded number of shadowed rows.
func (p *Priority) Rebase(g *conflict.Graph) *Priority {
	if p.over.Len() > 64+g.Len()/64 {
		return p.flatten(g)
	}
	return &Priority{g: g, succ: p.succ, pred: p.pred, over: p.over, cow: true, n: p.n}
}

// flatten materializes the overlay into fresh base arrays sized for
// the (possibly larger) new graph. The result owns its rows, so it
// runs in non-cow mode until it is itself rebased.
func (p *Priority) flatten(g *conflict.Graph) *Priority {
	n := g.Len()
	q := &Priority{g: g, succ: make([][]int32, n), pred: make([][]int32, n), n: p.n}
	for v := 0; v < n; v++ {
		r := p.row(v)
		if len(r.succ) > 0 {
			q.succ[v] = append([]int32(nil), r.succ...)
		}
		if len(r.pred) > 0 {
			q.pred[v] = append([]int32(nil), r.pred...)
		}
	}
	return q
}

// contains reports membership of v in the sorted slice s.
func contains(s []int32, v int32) bool {
	i := sort.Search(len(s), func(k int) bool { return s[k] >= v })
	return i < len(s) && s[i] == v
}

// insert adds v to the sorted slice s in place, keeping order. Only
// used on rows this version exclusively owns (non-cow mode).
func insert(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// insertCopy returns a fresh sorted slice = s ∪ {v}.
func insertCopy(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(k int) bool { return s[k] >= v })
	out := make([]int32, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

// removeCopy returns a fresh sorted slice = s \ {v}.
func removeCopy(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(k int) bool { return s[k] >= v })
	if i >= len(s) || s[i] != v {
		return s
	}
	out := make([]int32, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}

// addEdge records x ≻ y without any validity checking.
func (p *Priority) addEdge(x, y relation.TupleID) {
	if p.cow {
		rx := p.row(x)
		p.over.Set(x, prow{succ: insertCopy(rx.succ, int32(y)), pred: rx.pred})
		ry := p.row(y)
		p.over.Set(y, prow{succ: ry.succ, pred: insertCopy(ry.pred, int32(x))})
	} else {
		p.succ[x] = insert(p.succ[x], int32(y))
		p.pred[y] = insert(p.pred[y], int32(x))
	}
	p.n++
}

// removeEdge erases x ≻ y (which must be present).
func (p *Priority) removeEdge(x, y relation.TupleID) {
	if p.cow {
		rx := p.row(x)
		p.over.Set(x, prow{succ: removeCopy(rx.succ, int32(y)), pred: rx.pred})
		ry := p.row(y)
		p.over.Set(y, prow{succ: ry.succ, pred: removeCopy(ry.pred, int32(x))})
	} else {
		p.succ[x] = remove(p.succ[x], int32(y))
		p.pred[y] = remove(p.pred[y], int32(x))
	}
	p.n--
}

// remove deletes v from the sorted slice s in place.
func remove(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// DropVertex erases every orientation incident to v — the priority
// half of deleting tuple v. Cost is O(Σ degree of the affected rows).
func (p *Priority) DropVertex(v relation.TupleID) {
	r := p.row(v)
	if len(r.succ) == 0 && len(r.pred) == 0 {
		return
	}
	if !p.cow {
		for _, y := range r.succ {
			p.pred[y] = remove(p.pred[y], int32(v))
		}
		for _, x := range r.pred {
			p.succ[x] = remove(p.succ[x], int32(v))
		}
		p.n -= len(r.succ) + len(r.pred)
		p.succ[v] = nil
		p.pred[v] = nil
		return
	}
	for _, y := range r.succ {
		ry := p.row(int(y))
		p.over.Set(int(y), prow{succ: ry.succ, pred: removeCopy(ry.pred, int32(v))})
	}
	for _, x := range r.pred {
		rx := p.row(int(x))
		p.over.Set(int(x), prow{succ: removeCopy(rx.succ, int32(v)), pred: rx.pred})
	}
	p.n -= len(r.succ) + len(r.pred)
	p.over.Set(v, prow{})
}

// Dominates reports whether x ≻ y.
func (p *Priority) Dominates(x, y relation.TupleID) bool {
	return x >= 0 && contains(p.succs(x), int32(y))
}

// Oriented reports whether the conflict {x, y} is oriented either way.
func (p *Priority) Oriented(x, y relation.TupleID) bool {
	return p.Dominates(x, y) || p.Dominates(y, x)
}

// Add orients the conflict {x, y} as x ≻ y. It fails if x and y do
// not conflict (Definition 2 restricts priorities to conflicting
// tuples), if the edge is already oriented the other way, or if the
// orientation would create a cycle in ≻. Re-adding an existing
// orientation is a no-op.
func (p *Priority) Add(x, y relation.TupleID) error {
	if x == y {
		return fmt.Errorf("priority: tuple %d cannot dominate itself", x)
	}
	if !p.g.Adjacent(x, y) {
		return fmt.Errorf("priority: tuples %d and %d do not conflict", x, y)
	}
	if p.Dominates(x, y) {
		return nil
	}
	if p.Dominates(y, x) {
		return fmt.Errorf("priority: conflict {%d,%d} already oriented %d ≻ %d", x, y, y, x)
	}
	if p.reaches(y, x) {
		return fmt.Errorf("priority: orienting %d ≻ %d would create a cycle", x, y)
	}
	p.addEdge(x, y)
	return nil
}

// MustAdd is Add that panics on error, for fixtures.
func (p *Priority) MustAdd(x, y relation.TupleID) {
	if err := p.Add(x, y); err != nil {
		panic(err)
	}
}

// reaches reports whether there is a ≻-path from x to y. Since ≻
// only orients conflict edges, any such path stays inside x's
// connected component: the search is bounded by the component size,
// with a component-local visited set, so bulk priority construction
// over a large instance costs near-linear total work instead of an
// O(n)-sized scan per inserted edge.
func (p *Priority) reaches(x, y relation.TupleID) bool {
	if x == y {
		return true
	}
	g := p.g
	comp := g.Component(g.ComponentOf(x))
	seen := make(bitset.Words, bitset.WordsLen(len(comp)))
	stack := []int32{int32(x)}
	seen.Add(g.LocalIndexOf(x))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range p.succs(int(v)) {
			if int(w) == y {
				return true
			}
			li := g.LocalIndexOf(int(w))
			if !seen.Has(li) {
				seen.Add(li)
				stack = append(stack, w)
			}
		}
	}
	return false
}

// FromRelation builds a priority from an arbitrary acyclic binary
// relation on tuples by keeping only the pairs that conflict (§2.2
// notes the two approaches are equivalent). Pairs on non-conflicting
// tuples are silently dropped; an orientation conflict or a cycle
// among the kept pairs is an error.
func FromRelation(g *conflict.Graph, pairs [][2]relation.TupleID) (*Priority, error) {
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

// Clone returns an independent, flat (non-cow) copy.
func (p *Priority) Clone() *Priority {
	n := p.g.Len()
	q := &Priority{g: p.g, succ: make([][]int32, n), pred: make([][]int32, n), n: p.n}
	for v := 0; v < n; v++ {
		r := p.row(v)
		if len(r.succ) > 0 {
			q.succ[v] = append([]int32(nil), r.succ...)
		}
		if len(r.pred) > 0 {
			q.pred[v] = append([]int32(nil), r.pred...)
		}
	}
	return q
}

// IsTotal reports whether every conflict edge is oriented — a total
// priority cannot be extended further.
func (p *Priority) IsTotal() bool {
	return p.n == p.g.NumEdges()
}

// Dominators returns {x : x ≻ t} as a sorted slice view. The caller
// must not mutate the result.
func (p *Priority) Dominators(t relation.TupleID) []int32 { return p.preds(t) }

// Dominated returns {y : t ≻ y} as a sorted slice view. The caller
// must not mutate the result.
func (p *Priority) Dominated(t relation.TupleID) []int32 { return p.succs(t) }

// Winnow computes ω≻ restricted to the sub-instance rest: the tuples
// of rest not dominated by any other tuple of rest [5].
func (p *Priority) Winnow(rest *bitset.Set) *bitset.Set {
	out := bitset.New(p.g.Len())
	rest.Range(func(t int) bool {
		if t < p.g.Len() && p.UndominatedIn(t, rest) {
			out.Add(t)
		}
		return true
	})
	return out
}

// UndominatedIn reports whether tuple t has no dominator inside rest.
func (p *Priority) UndominatedIn(t relation.TupleID, rest *bitset.Set) bool {
	for _, x := range p.preds(t) {
		if rest.Has(int(x)) {
			return false
		}
	}
	return true
}

// TotalExtension returns a total priority extending p. The remaining
// edges are oriented by a topological order of the current ≻ digraph
// (ties broken by rng if non-nil, else by tuple ID), which keeps the
// result acyclic. Every priority extends to a total one this way.
func (p *Priority) TotalExtension(rng *rand.Rand) *Priority {
	order := p.topoOrder(rng)
	rank := make([]int, len(order))
	for i, v := range order {
		rank[v] = i
	}
	q := p.Clone()
	for _, e := range p.g.Edges() {
		if q.Oriented(e.A, e.B) {
			continue
		}
		x, y := e.A, e.B
		if rank[x] > rank[y] {
			x, y = y, x
		}
		// rank[x] < rank[y]: orienting x ≻ y follows the linear order,
		// so no cycle can arise.
		q.addEdge(x, y)
	}
	return q
}

// topoOrder returns a topological order of the ≻ digraph (which is
// acyclic by construction), with tie-breaking randomized by rng when
// non-nil.
func (p *Priority) topoOrder(rng *rand.Rand) []int {
	n := p.g.Len()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(p.preds(v))
	}
	ready := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		i := 0
		if rng != nil {
			i = rng.Intn(len(ready))
		}
		v := ready[i]
		ready = append(ready[:i], ready[i+1:]...)
		order = append(order, v)
		for _, w := range p.succs(v) {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, int(w))
			}
		}
	}
	return order
}

// Edges returns the oriented pairs (x ≻ y) in deterministic
// (lexicographic) order.
func (p *Priority) Edges() [][2]relation.TupleID {
	out := make([][2]relation.TupleID, 0, p.n)
	for x := 0; x < p.g.Len(); x++ {
		for _, y := range p.succs(x) {
			out = append(out, [2]relation.TupleID{x, int(y)})
		}
	}
	return out
}

// String renders the oriented pairs as "{t0 > t1, t2 > t3}".
func (p *Priority) String() string {
	s := "{"
	for i, e := range p.Edges() {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("t%d > t%d", e[0], e[1])
	}
	return s + "}"
}
