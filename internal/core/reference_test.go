package core

import (
	"prefcqa/internal/bitset"
	"prefcqa/internal/clean"
	"prefcqa/internal/conflict"
	"prefcqa/internal/priority"
	"prefcqa/internal/repair"
)

// This file is the test-side reference for the repair-checking problem
// B_F^X of §4.1: the optimality conditions evaluated on whole repairs
// over global TupleIDs, with the priority read through
// Priority.Dominators / Dominates and no component-local projection.
// Check (local.go) must agree with it on every repair.

// referenceCheck is the global-ID twin of Check.
func referenceCheck(f Family, p *priority.Priority, rp *bitset.Set) bool {
	switch f {
	case Rep:
		return repair.IsRepair(p.Graph(), rp)
	case Local:
		return IsLocallyOptimal(p, rp)
	case SemiGlobal:
		return IsSemiGloballyOptimal(p, rp)
	case Global:
		return IsGloballyOptimal(p, rp)
	case Common:
		return IsCommon(p, rp)
	default:
		return false
	}
}

// IsLocallyOptimal reports whether r' is a locally optimal repair:
// no tuple x ∈ r' can be replaced with a tuple y ≻ x such that
// (r' \ {x}) ∪ {y} is consistent (§3.1).
func IsLocallyOptimal(p *priority.Priority, rp *bitset.Set) bool {
	if !repair.IsRepair(p.Graph(), rp) {
		return false
	}
	optimal := true
	rp.Range(func(x int) bool {
		for _, y := range p.Dominators(x) {
			// (r'\{x}) ∪ {y} is consistent iff y's only neighbor
			// inside r' is x. (y ≻ x implies y conflicts x, so y ∉ r'.)
			if neighborsWithin(p, int(y), rp, x) {
				optimal = false
				return false
			}
		}
		return optimal
	})
	return optimal
}

// neighborsWithin reports whether n(y) ∩ r' ⊆ {exclude}.
func neighborsWithin(p *priority.Priority, y int, rp *bitset.Set, exclude int) bool {
	for _, z := range p.Graph().Neighbors(y) {
		if int(z) != exclude && rp.Has(int(z)) {
			return false
		}
	}
	return true
}

// IsSemiGloballyOptimal reports whether r' is a semi-globally optimal
// repair: no nonempty X ⊆ r' can be replaced with a single tuple y
// dominating every member of X such that (r' \ X) ∪ {y} is consistent
// (§3.2). Equivalently (§4.2): there is no tuple y ∉ r' whose
// neighbors in r' are all dominated by y; the minimal replaceable set
// for y is X = n(y) ∩ r', which the paper requires nonempty.
func IsSemiGloballyOptimal(p *priority.Priority, rp *bitset.Set) bool {
	g := p.Graph()
	if !repair.IsRepair(g, rp) {
		return false
	}
	optimal := true
	g.LiveSet().Range(func(y int) bool {
		if rp.Has(y) {
			return true
		}
		hasNeighbor := false
		dominatesAll := true
		for _, x := range g.Neighbors(y) {
			if !rp.Has(int(x)) {
				continue
			}
			hasNeighbor = true
			if !p.Dominates(y, int(x)) {
				dominatesAll = false
				break
			}
		}
		optimal = !hasNeighbor || !dominatesAll
		return optimal
	})
	return optimal
}

// PreferredOver reports r1 ≪ r2 (Proposition 5): the repairs differ
// and every tuple of r1 \ r2 is dominated by some tuple of r2 \ r1.
func PreferredOver(p *priority.Priority, r1, r2 *bitset.Set) bool {
	if r1.Equal(r2) {
		return false
	}
	diff2 := bitset.Difference(r2, r1)
	ok := true
	bitset.Difference(r1, r2).Range(func(x int) bool {
		dominated := false
		for _, y := range p.Dominators(x) {
			if diff2.Has(int(y)) {
				dominated = true
				break
			}
		}
		ok = dominated
		return ok
	})
	return ok
}

// IsGloballyOptimal reports whether r' is a globally optimal repair.
// By Proposition 5 this holds iff r' is ≪-maximal. Domination is
// witnessed componentwise (a dominating tuple conflicts the tuple it
// replaces, hence shares its component), so r' is globally optimal
// iff each component restriction is ≪-maximal among the component's
// repairs.
func IsGloballyOptimal(p *priority.Priority, rp *bitset.Set) bool {
	g := p.Graph()
	if !repair.IsRepair(g, rp) {
		return false
	}
	for _, comp := range g.Components() {
		rc := bitset.New(0)
		for _, v := range comp {
			if rp.Has(v) {
				rc.Add(v)
			}
		}
		for _, s := range componentRepairs(g, comp) {
			if PreferredOver(p, rc, s) {
				return false
			}
		}
	}
	return true
}

// IsCommon reports whether r' ∈ C-Rep by simulating Algorithm 1 over
// the whole instance with choices restricted to ω≻(rest) ∩ r'
// (Proposition 7). Picks of r'-tuples commute and remain available as
// rest shrinks, so a single pass decides membership (Cor. 2).
func IsCommon(p *priority.Priority, rp *bitset.Set) bool {
	g := p.Graph()
	if !repair.IsRepair(g, rp) {
		return false
	}
	rest := g.LiveSet()
	for !rest.Empty() {
		w := p.Winnow(rest)
		w.IntersectWith(rp)
		if w.Empty() {
			// ω≻(rest) is nonempty (acyclicity) but disjoint from r':
			// no choice sequence can produce r'.
			return false
		}
		// All currently pickable r'-tuples commute; take them all.
		w.Range(func(x int) bool {
			rest.Remove(x)
			for _, u := range g.Neighbors(x) {
				rest.Remove(int(u))
			}
			return true
		})
	}
	return true
}

// componentRepairs lists the maximal independent sets of one
// component as sets of global TupleIDs.
func componentRepairs(g *conflict.Graph, comp []int) []*bitset.Set {
	l := g.Project(comp)
	var local []*bitset.Set
	repair.EnumerateLocal(l, func(r bitset.Words) bool { //nolint:errcheck // yield never stops
		local = append(local, r.ToSet())
		return true
	})
	return toGlobal(l, local)
}

// toGlobal lifts sets over l's local indices to global TupleIDs.
func toGlobal(l *conflict.Local, local []*bitset.Set) []*bitset.Set {
	out := make([]*bitset.Set, len(local))
	for i, s := range local {
		out[i] = bitset.New(0)
		s.Range(func(j int) bool {
			out[i].Add(l.Global(j))
			return true
		})
	}
	return out
}

// product lists every union of one set per component, the first
// component varying slowest: the order the engine enumerates in.
func product(perComp [][]*bitset.Set) []*bitset.Set {
	out := []*bitset.Set{bitset.New(0)}
	for _, choices := range perComp {
		var next []*bitset.Set
		for _, prefix := range out {
			for _, c := range choices {
				next = append(next, bitset.Union(prefix, c))
			}
		}
		out = next
	}
	return out
}

// allRepairs lists every repair of the instance, in the engine's order.
func allRepairs(g *conflict.Graph) []*bitset.Set {
	var perComp [][]*bitset.Set
	for _, comp := range g.Components() {
		perComp = append(perComp, componentRepairs(g, comp))
	}
	return product(perComp)
}

// allOutcomes lists every outcome of Algorithm 1 over all choice
// sequences — C-Rep by Proposition 7 — as the product of each
// component's outcomes, in the engine's order.
func allOutcomes(p *priority.Priority) []*bitset.Set {
	var perComp [][]*bitset.Set
	for _, comp := range p.Graph().Components() {
		l := p.Graph().Project(comp)
		perComp = append(perComp, toGlobal(l, clean.LocalOutcomes(p.Localize(l))))
	}
	return product(perComp)
}
