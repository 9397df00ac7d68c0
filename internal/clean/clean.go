// Package clean implements Algorithm 1 of the paper: cleaning a
// database with a priority by iteratively selecting winnow-optimal
// tuples (tuples not dominated by any remaining tuple) and discarding
// their neighborhoods. For a total priority the result is a unique
// repair (Proposition 1); for partial priorities the set of outcomes
// over all choice sequences is exactly C-Rep (Proposition 7), which
// LocalOutcomes lists one conflict component at a time.
//
// The package also provides the naive cleaning baseline the
// introduction argues against ([14]-style): resolve a conflict when
// the priority says how, otherwise drop both tuples. Its output is
// consistent but generally not maximal — disjunctive information is
// lost — which examples/cleaning demonstrates.
package clean

import (
	"sort"

	"prefcqa/internal/bitset"
	"prefcqa/internal/priority"
)

// Deterministic runs Algorithm 1 — repeatedly pick x ∈ ω≻(rest), move
// x to the result, and remove v(x) = {x} ∪ n(x) from rest — always
// choosing the smallest tuple ID of the winnow set. The result is a
// repair; with a total priority it is independent of the choices
// (Proposition 1). It processes one connected component at a time,
// which yields exactly the outcome of the smallest-ID choice over the
// whole instance — whenever the global minimum of the winnow lies in a
// component, it is also that component's local minimum, and choices in
// different components do not interact — while keeping each winnow
// recomputation proportional to the component.
func Deterministic(p *priority.Priority) *bitset.Set {
	g := p.Graph()
	out := bitset.New(g.Len())
	for _, comp := range g.Components() {
		rest := bitset.FromSlice(comp)
		for !rest.Empty() {
			w := p.Winnow(rest)
			x := w.Min()
			out.Add(x)
			rest.Remove(x)
			for _, u := range g.Neighbors(x) {
				rest.Remove(int(u))
			}
		}
	}
	return out
}

// LocalOutcomes explores all choice sequences of Algorithm 1 on one
// component-local view, returning the distinct outcomes as sets over
// local indices [0, k). Outcomes are deduplicated; the search
// memoizes visited (rest, acc) states. All scratch state is k-sized.
func LocalOutcomes(pl *priority.Local) []*bitset.Set {
	l := pl.View()
	k := l.Len()
	seenRest := map[string]bool{}
	outcomes := map[string]*bitset.Set{}
	var rec func(rest, acc *bitset.Set)
	rec = func(rest, acc *bitset.Set) {
		if rest.Empty() {
			key := acc.Key()
			if _, ok := outcomes[key]; !ok {
				outcomes[key] = acc.Clone()
			}
			return
		}
		// Memoization on rest alone is sound within a component run:
		// acc is determined by the removed vicinities, but different
		// accs can reach the same rest; key on both.
		key := rest.Key() + "|" + acc.Key()
		if seenRest[key] {
			return
		}
		seenRest[key] = true
		rest.Range(func(x int) bool {
			if !pl.UndominatedIn(x, rest) {
				return true // x ∉ ω≻(rest)
			}
			nrest := rest.Clone()
			nrest.Remove(x)
			for _, u := range l.Neighbors(x) {
				nrest.Remove(int(u))
			}
			nacc := acc.Clone()
			nacc.Add(x)
			rec(nrest, nacc)
			return true
		})
	}
	rec(bitset.Full(k), bitset.New(k))
	// Deterministic order: lexicographic on the sorted element lists.
	// This order is preserved by any order-preserving renumbering of
	// the component's vertices, so structurally identical components
	// enumerate their outcomes in corresponding order — a property the
	// memoizing evaluation engine relies on to stay bit-for-bit
	// identical to the sequential path.
	out := make([]*bitset.Set, 0, len(outcomes))
	elems := make([][]int, 0, len(outcomes))
	for _, s := range outcomes {
		out = append(out, s)
		elems = append(elems, s.Slice())
	}
	sort.Sort(&byElems{sets: out, elems: elems})
	return out
}

// byElems sorts sets lexicographically on their precomputed element
// lists (one Slice() per set instead of two per comparison).
type byElems struct {
	sets  []*bitset.Set
	elems [][]int
}

func (b *byElems) Len() int { return len(b.sets) }

func (b *byElems) Swap(i, j int) {
	b.sets[i], b.sets[j] = b.sets[j], b.sets[i]
	b.elems[i], b.elems[j] = b.elems[j], b.elems[i]
}

func (b *byElems) Less(i, j int) bool {
	as, bs := b.elems[i], b.elems[j]
	for k := 0; k < len(as) && k < len(bs); k++ {
		if as[k] != bs[k] {
			return as[k] < bs[k]
		}
	}
	return len(as) < len(bs)
}

// Naive performs the [14]-style cleaning the paper contrasts with
// (§5): for every conflict {x, y}, if the priority orients it, the
// dominated tuple is dropped; if it does not, *both* tuples are
// dropped. Undominated tuples whose every conflict is resolved in
// their favor survive. The result is consistent but not maximal in
// general (not a repair), losing disjunctive information.
func Naive(p *priority.Priority) *bitset.Set {
	g := p.Graph()
	out := bitset.New(g.Len())
	for t := 0; t < g.Len(); t++ {
		if !g.Live(t) {
			continue
		}
		keep := true
		for _, u := range g.Neighbors(t) {
			if !p.Dominates(t, int(u)) {
				keep = false // either dominated or unresolved
				break
			}
		}
		if keep {
			out.Add(t)
		}
	}
	return out
}
