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
// is stored in CSR form like the conflict graph, O(n + m) memory with
// no heap object per vertex.
//
// The CSR base is immutable once built. Every change (Add, DropVertex)
// replaces the touched rows in a persistent overlay (internal/pmap):
// Rebase forks a priority onto a new graph version by sharing both, so
// point mutations cost O(touched rows · log n) and the fork nothing
// that grows with either.
package priority

import (
	"fmt"
	"math/rand"
	"slices"

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
	// Immutable CSR base rows, sorted ascending:
	// succ[succOff[x]:succOff[x+1]] = {y : x ≻ y} and
	// pred[predOff[y]:predOff[y+1]] = {x : x ≻ y}, for the vertices
	// below len(succOff)-1 (none on an empty priority). Shared by every
	// version rebased from the one that built them.
	succOff, succ []int32
	predOff, pred []int32
	// over holds this version's replacement rows, including rows of
	// vertices beyond the base (post-fork inserts).
	over pmap.Map[prow]
	n    int // number of oriented edges
}

// prow is one vertex's replacement successor/predecessor rows. Either
// slice may be shared with the base or with an earlier version; rows
// are never mutated in place, only replaced by fresh copies.
type prow struct {
	succ, pred []int32
}

// New returns the empty priority over the graph (no edge oriented).
// It allocates nothing that grows with the graph.
func New(g *conflict.Graph) *Priority { return &Priority{g: g} }

// Graph returns the conflict graph the priority orients.
func (p *Priority) Graph() *conflict.Graph { return p.g }

// row resolves a vertex's successor/predecessor rows through the
// overlay.
func (p *Priority) row(v relation.TupleID) prow {
	if r, ok := p.over.Get(v); ok {
		return r
	}
	if v >= 0 && v < len(p.succOff)-1 {
		s, e := p.succOff[v], p.succOff[v+1]
		ps, pe := p.predOff[v], p.predOff[v+1]
		return prow{succ: p.succ[s:e:e], pred: p.pred[ps:pe:pe]}
	}
	return prow{}
}

// Rebase forks p onto a (newer) graph version: base rows and the
// overlay are shared — the overlay is a persistent map, so the fork is
// a struct copy — and subsequent Add/DropVertex calls patch only the
// touched rows. The receiver is left untouched and remains the
// consistent view of the old version. Once the overlay outgrows its
// bound, the fork instead lays its rows out as a fresh CSR base (O(n),
// amortized O(1) per mutation), so a long mutation stream keeps all
// but a bounded share of its row reads on the flat arrays and holds a
// bounded number of shadowed rows.
func (p *Priority) Rebase(g *conflict.Graph) *Priority {
	if p.over.Len() > 64+g.Len()/64 {
		return build(g, p.Edges())
	}
	q := *p
	q.g = g
	return &q
}

// insertCopy returns a fresh sorted slice = s ∪ {v}.
func insertCopy(s []int32, v int32) []int32 {
	i, _ := slices.BinarySearch(s, v)
	return slices.Insert(slices.Clip(s), i, v)
}

// removeCopy returns a fresh sorted slice = s \ {v}.
func removeCopy(s []int32, v int32) []int32 {
	if i, ok := slices.BinarySearch(s, v); ok {
		return slices.Delete(slices.Clone(s), i, i+1)
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
	_, ok := slices.BinarySearch(p.row(x).succ, int32(y))
	return ok
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
	rx := p.row(x)
	p.over.Set(x, prow{succ: insertCopy(rx.succ, int32(y)), pred: rx.pred})
	ry := p.row(y)
	p.over.Set(y, prow{succ: ry.succ, pred: insertCopy(ry.pred, int32(x))})
	p.n++
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
// with a component-local visited set, so an Add on a large instance
// costs its component, not an O(n)-sized scan.
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
		for _, w := range p.row(int(v)).succ {
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
// among the kept pairs is an error — the one Add reports for the first
// pair that fails when the kept pairs are added in order. The kept
// pairs are laid out in one go and checked together (unsound); only
// the components where the check fails — a cycle or a repeat, and all
// Add decides about a pair, stays inside one — are replayed through
// Add, in order.
func FromRelation(g *conflict.Graph, pairs [][2]relation.TupleID) (*Priority, error) {
	kept := make([][2]relation.TupleID, 0, len(pairs))
	for _, pr := range pairs {
		if g.Adjacent(pr[0], pr[1]) {
			kept = append(kept, pr)
		}
	}
	p := build(g, kept)
	bad := p.unsound()
	if bad == nil {
		return p, nil
	}
	replay := make(map[int]bool)
	for _, v := range bad {
		replay[g.ComponentOf(int(v))] = true
	}
	q := New(g)
	rest := kept[:0] // filtered in place: never written ahead of the read
	for _, pr := range kept {
		if !replay[g.ComponentOf(pr[0])] {
			rest = append(rest, pr)
		} else if err := q.Add(pr[0], pr[1]); err != nil {
			return nil, err
		}
	}
	return build(g, append(rest, q.Edges()...)), nil
}

// build lays the oriented pairs out as the CSR base of a fresh
// priority over g, in two counting passes: degrees into the offsets,
// then each pair into its two rows, which are sorted in place. The
// pairs must be conflict edges of g; build does not check that they
// are distinct, oriented one way each or acyclic (valid does).
func build(g *conflict.Graph, pairs [][2]relation.TupleID) *Priority {
	n := g.Len()
	// The offsets count into index v+2, so that after the prefix sum
	// off[v+1] is the start of row v and serves as its fill cursor;
	// once filled it is the row's end, and off[:n+1] is the CSR index.
	p := &Priority{g: g, succOff: make([]int32, n+2), predOff: make([]int32, n+2), n: len(pairs)}
	for _, pr := range pairs {
		p.succOff[pr[0]+2]++
		p.predOff[pr[1]+2]++
	}
	for v := 2; v < n+2; v++ {
		p.succOff[v] += p.succOff[v-1]
		p.predOff[v] += p.predOff[v-1]
	}
	p.succ = make([]int32, len(pairs))
	p.pred = make([]int32, len(pairs))
	for _, pr := range pairs {
		x, y := pr[0], pr[1]
		p.succ[p.succOff[x+1]] = int32(y)
		p.succOff[x+1]++
		p.pred[p.predOff[y+1]] = int32(x)
		p.predOff[y+1]++
	}
	p.succOff, p.predOff = p.succOff[:n+1], p.predOff[:n+1]
	for v := 0; v < n; v++ {
		slices.Sort(p.succ[p.succOff[v]:p.succOff[v+1]])
		slices.Sort(p.pred[p.predOff[v]:p.predOff[v+1]])
	}
	return p
}

// unsound returns, for a freshly built priority, a vertex of every
// component where adding the pairs one by one with Add would not just
// orient them all: each vertex whose row repeats an entry (Add skips a
// repeat), and each vertex one Kahn pass cannot order (on or after a
// cycle; a conflict oriented both ways is one of length two). nil: the
// priority is exactly what the Add sequence builds.
func (p *Priority) unsound() []int32 {
	n := len(p.succOff) - 1
	var bad []int32
	for v := 0; v < n; v++ {
		row := p.succ[p.succOff[v]:p.succOff[v+1]]
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				bad = append(bad, int32(v))
				break
			}
		}
	}
	indeg := make([]int32, n)
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] = p.predOff[v+1] - p.predOff[v]; indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, w := range p.succ[p.succOff[v]:p.succOff[v+1]] {
			if indeg[w]--; indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(queue) < n {
		for v, d := range indeg {
			if d > 0 {
				bad = append(bad, int32(v))
			}
		}
	}
	return bad
}

// Clone returns an independent copy with its rows laid out as a fresh
// CSR base and an empty overlay.
func (p *Priority) Clone() *Priority { return build(p.g, p.Edges()) }

// IsTotal reports whether every conflict edge is oriented — a total
// priority cannot be extended further.
func (p *Priority) IsTotal() bool {
	return p.n == p.g.NumEdges()
}

// Dominators returns {x : x ≻ t} as a sorted slice view. The caller
// must not mutate the result.
func (p *Priority) Dominators(t relation.TupleID) []int32 { return p.row(t).pred }

// Dominated returns {y : t ≻ y} as a sorted slice view. The caller
// must not mutate the result.
func (p *Priority) Dominated(t relation.TupleID) []int32 { return p.row(t).succ }

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
	for _, x := range p.row(t).pred {
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
	pairs := p.Edges()
	for _, e := range p.g.Edges() {
		if p.Oriented(e.A, e.B) {
			continue
		}
		x, y := e.A, e.B
		if rank[x] > rank[y] {
			x, y = y, x
		}
		// rank[x] < rank[y]: orienting x ≻ y follows the linear order,
		// so no cycle can arise.
		pairs = append(pairs, [2]relation.TupleID{x, y})
	}
	return build(p.g, pairs)
}

// topoOrder returns a topological order of the ≻ digraph (which is
// acyclic by construction), with tie-breaking randomized by rng when
// non-nil.
func (p *Priority) topoOrder(rng *rand.Rand) []int {
	n := p.g.Len()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(p.row(v).pred)
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
		for _, w := range p.row(v).succ {
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
		for _, y := range p.row(x).succ {
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
