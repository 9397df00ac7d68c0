package core

import (
	"prefcqa/internal/bitset"
	"prefcqa/internal/clean"
	"prefcqa/internal/priority"
	"prefcqa/internal/repair"
)

// This file evaluates the per-component choice sets in component-local
// index space: vertices renumbered 0..k-1, scratch sets k bits wide,
// adjacency and priority orientation read from the conflict.Local /
// priority.Local projections. The renumbering is order-preserving, so
// the local evaluation is bit-for-bit equivalent (reading local index
// i as the component's i-th tuple ID) to the same computation on
// global IDs — and the local choice sets are exactly what the engine's
// memo cache stores and what consumers apply (Choices), so a choice is
// never translated to global IDs as a set.

// localChoices computes the family's choice sets for one component,
// as sets over local indices [0, k).
func localChoices(f Family, p *priority.Priority, comp []int) []*bitset.Set {
	l := p.Graph().Project(comp)
	if f == Rep {
		var list []*bitset.Set
		repair.EnumerateLocal(l, func(r bitset.Words) bool { //nolint:errcheck // yield never stops
			list = append(list, r.ToSet())
			return true
		})
		return list
	}
	pl := p.Localize(l)
	switch f {
	case Common:
		return clean.LocalOutcomes(pl)
	case Global:
		// ≪-maximality needs all of the component's repairs as
		// candidate dominators: materialize once, then filter.
		var all []*bitset.Set
		repair.EnumerateLocal(l, func(r bitset.Words) bool { //nolint:errcheck // yield never stops
			all = append(all, r.ToSet())
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
				list = append(list, rc)
			}
		}
		return list
	}
	var list []*bitset.Set
	repair.EnumerateLocal(l, func(r bitset.Words) bool { //nolint:errcheck // yield never stops
		keep := true
		switch f {
		case Local:
			keep = locallyOptimalCondLocal(pl, r)
		case SemiGlobal:
			keep = semiGloballyOptimalCondLocal(pl, r)
		}
		if keep {
			list = append(list, r.ToSet())
		}
		return true
	})
	return list
}

// locallyOptimalCondLocal is locallyOptimalCond in local index space:
// no tuple x ∈ r' can be swapped for a dominator y with
// (r' \ {x}) ∪ {y} consistent.
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

// semiGloballyOptimalCondLocal is semiGloballyOptimalCond in local
// index space, with candidate replacements y drawn from the whole
// component: no y ∉ r' may dominate all of its neighbors in r'
// (nonempty).
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

// preferredOverLocal is PreferredOver in local index space: r1 ≪ r2
// iff they differ and every x ∈ r1 \ r2 is dominated by some tuple of
// r2 \ r1.
func preferredOverLocal(pl *priority.Local, r1, r2 *bitset.Set) bool {
	if r1.Equal(r2) {
		return false
	}
	ok := true
	r1.Range(func(x int) bool {
		if r2.Has(x) {
			return true
		}
		dominated := false
		pl.RangeNeighbors(x, func(y int, o int8) bool {
			if o == -1 && r2.Has(y) && !r1.Has(y) {
				dominated = true
				return false
			}
			return true
		})
		if !dominated {
			ok = false
			return false
		}
		return true
	})
	return ok
}
