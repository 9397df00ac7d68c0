package core

import (
	"prefcqa/internal/bitset"
	"prefcqa/internal/clean"
	"prefcqa/internal/priority"
	"prefcqa/internal/repair"
)

// This file holds the optimality conditions of the families and the two
// things built on them: the per-component choice sets and the
// repair-checking problem (Check). Both run in component-local index
// space: vertices renumbered 0..k-1, scratch sets k bits wide,
// adjacency and priority orientation read from the conflict.Local /
// priority.Local projections. The renumbering is order-preserving, so
// reading local index i as the component's i-th tuple ID gives the
// same sets as on global IDs — and the local choice sets are exactly
// what the engine's memo cache stores and what consumers apply
// (Choices), so a choice is never translated to global IDs as a set.
// Every condition only relates a tuple to its conflict neighbours,
// hence decomposes over components (journal version, PAPERS.md).

// localChoices computes the family's choice sets for one component,
// as sets over local indices [0, k).
func localChoices(f Family, p *priority.Priority, comp []int) []*bitset.Set {
	l := p.Graph().Project(comp)
	var pl *priority.Local
	if f != Rep { // repairs ignore the priority
		pl = p.Localize(l)
	}
	switch f {
	case Common:
		return clean.LocalOutcomes(pl)
	case Global:
		// ≪-maximality needs all of the component's repairs as
		// candidate dominators: materialize once, then filter.
		var all []bitset.Words
		repair.EnumerateLocal(l, func(r bitset.Words) bool { //nolint:errcheck // yield never stops
			all = append(all, append(bitset.Words(nil), r...))
			return true
		})
		var list []*bitset.Set
		for _, rc := range all {
			maximal := true
			for _, s := range all {
				if preferredOverLocal(pl, rc, s) {
					maximal = false
					break
				}
			}
			if maximal {
				list = append(list, rc.ToSet())
			}
		}
		return list
	}
	var list []*bitset.Set
	repair.EnumerateLocal(l, func(r bitset.Words) bool { //nolint:errcheck // yield never stops
		if f == Rep || checkComponent(f, pl, r) {
			list = append(list, r.ToSet())
		}
		return true
	})
	return list
}

// Check decides the repair-checking problem B_F^X of §4.1: is r' a
// preferred repair of the instance underlying p's graph? Every
// optimality condition only relates a tuple to its conflict
// neighbours, so after the whole-set repair test r' is checked one
// component at a time, projected into the component's local index
// space. Polynomial for Rep, L, S and C (Thm. 4, Cor. 1, Cor. 2); G
// enumerates each component's repairs once (Thm. 5: co-NP-complete).
func Check(f Family, p *priority.Priority, rp *bitset.Set) bool {
	g := p.Graph()
	if f < Rep || f > Common || !repair.IsRepair(g, rp) {
		return false
	}
	if f == Rep {
		return true
	}
	for _, comp := range g.Components() {
		if len(comp) == 1 {
			continue // a tuple without conflicts satisfies every condition
		}
		rc := make(bitset.Words, bitset.WordsLen(len(comp)))
		for i, v := range comp {
			if rp.Has(v) {
				rc.Add(i)
			}
		}
		if !checkComponent(f, p.Localize(g.Project(comp)), rc) {
			return false
		}
	}
	return true
}

// checkComponent evaluates the optimality condition of a family other
// than Rep on one component's restriction rc of a repair.
func checkComponent(f Family, pl *priority.Local, rc bitset.Words) bool {
	switch f {
	case Local:
		return locallyOptimalCondLocal(pl, rc)
	case SemiGlobal:
		return semiGloballyOptimalCondLocal(pl, rc)
	case Common:
		return commonCondLocal(pl, rc)
	case Global:
		// Proposition 5: r' is globally optimal iff no repair s has
		// r' ≪ s; one pass over the component's repairs.
		maximal := true
		repair.EnumerateLocal(pl.View(), func(s bitset.Words) bool { //nolint:errcheck // a stop is the answer
			maximal = !preferredOverLocal(pl, rc, s)
			return maximal
		})
		return maximal
	}
	return false
}

// locallyOptimalCondLocal is the L-condition (§3.1): no tuple x ∈ r'
// can be swapped for a dominator y with (r' \ {x}) ∪ {y} consistent.
func locallyOptimalCondLocal(pl *priority.Local, rp bitset.Words) bool {
	l := pl.View()
	optimal := true
	rp.Range(func(x int) bool {
		pl.RangeNeighbors(x, func(y int, o int8) bool {
			if o != -1 {
				return true // not a dominator of x
			}
			// (r'\{x}) ∪ {y} is consistent iff y's only neighbor
			// inside r' is x. (y ≻ x implies y conflicts x, so y ∉ r'.)
			within := true
			for _, z := range l.Neighbors(y) {
				if int(z) != x && rp.Has(int(z)) {
					within = false
					break
				}
			}
			if within {
				optimal = false
				return false
			}
			return true
		})
		return optimal
	})
	return optimal
}

// semiGloballyOptimalCondLocal is the S-condition (§3.2, §4.2): no
// y ∉ r' of the component may dominate all of its neighbors in r'
// (nonempty); the minimal set y could replace is n(y) ∩ r'.
func semiGloballyOptimalCondLocal(pl *priority.Local, rp bitset.Words) bool {
	k := pl.View().Len()
	for y := 0; y < k; y++ {
		if rp.Has(y) {
			continue
		}
		hasNeighbor := false
		dominatesAll := true
		pl.RangeNeighbors(y, func(x int, o int8) bool {
			if !rp.Has(x) {
				return true
			}
			hasNeighbor = true
			if o != 1 { // y does not dominate x
				dominatesAll = false
				return false
			}
			return true
		})
		if hasNeighbor && dominatesAll {
			return false
		}
	}
	return true
}

// preferredOverLocal reports r1 ≪ r2 for two repairs of the component
// (Proposition 5): they differ and every x ∈ r1 \ r2 is dominated by
// some tuple of r2 \ r1. Two maximal independent sets differ iff
// r1 \ r2 is nonempty.
func preferredOverLocal(pl *priority.Local, r1, r2 bitset.Words) bool {
	differ, ok := false, true
	r1.Range(func(x int) bool {
		if r2.Has(x) {
			return true
		}
		differ = true
		dominated := false
		pl.RangeNeighbors(x, func(y int, o int8) bool {
			if o == -1 && r2.Has(y) && !r1.Has(y) {
				dominated = true
				return false
			}
			return true
		})
		ok = dominated
		return ok
	})
	return differ && ok
}

// commonCondLocal decides r' ∈ C-Rep on one component (Proposition 7):
// Algorithm 1 is simulated with its choices restricted to
// ω≻(rest) ∩ r'. Picks of r'-tuples commute and stay available as rest
// shrinks, so one greedy pass decides it in polynomial time (Cor. 2);
// r' is common iff rest empties, since every pick was in r'.
func commonCondLocal(pl *priority.Local, rp bitset.Words) bool {
	l := pl.View()
	rest := bitset.Full(l.Len())
	for !rest.Empty() {
		picked := false
		rp.Range(func(x int) bool {
			if rest.Has(x) && pl.UndominatedIn(x, rest) {
				picked = true
				rest.Remove(x)
				for _, u := range l.Neighbors(x) {
					rest.Remove(int(u))
				}
			}
			return true
		})
		if !picked {
			// ω≻(rest) is nonempty (acyclicity) but disjoint from r':
			// no choice sequence can produce r'.
			return false
		}
	}
	return true
}
