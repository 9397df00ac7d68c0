package core

import (
	"context"
	"sort"

	"prefcqa/internal/bitset"
	"prefcqa/internal/priority"
	"prefcqa/internal/repair"
)

// Choices is the list of preferred choices of one conflict component,
// kept in the component-local form the memo stores and applied to a
// visibility set sparsely: adding or removing a choice touches its at
// most len(Comp) member tuples and nothing else, so no consumer ever
// allocates an instance-wide set per component.
type Choices struct {
	// Comp lists the component's tuple IDs in ascending order; Comp[i]
	// is the tuple behind local index i. Owned by the conflict graph.
	Comp []int
	// Local holds one set of local indices per choice, in enumeration
	// order. Shared with the memo and with every structurally identical
	// component: immutable.
	Local []*bitset.Set
}

// AddTo makes the tuples of choice k visible in set, which must have
// capacity for the component's largest tuple ID.
func (c Choices) AddTo(set *bitset.Set, k int) {
	c.Local[k].Range(func(i int) bool {
		set.Add(c.Comp[i])
		return true
	})
}

// RemoveFrom hides the tuples of choice k again.
func (c Choices) RemoveFrom(set *bitset.Set, k int) {
	c.Local[k].Range(func(i int) bool {
		set.Remove(c.Comp[i])
		return true
	})
}

// Keeps reports whether choice k keeps tuple id.
func (c Choices) Keeps(k int, id int) bool {
	i := sort.SearchInts(c.Comp, id)
	return i < len(c.Comp) && c.Comp[i] == id && c.Local[k].Has(i)
}

// Part is one relation's share of a repair walk: the visibility set
// the walk varies in place and the components that vary it.
type Part struct {
	Set   *bitset.Set
	Multi []Choices
}

// Fold adds component c to the part: a single choice is applied to Set
// for good, anything else is left to the walk.
func (p *Part) Fold(c Choices) {
	if len(c.Local) == 1 {
		c.AddTo(p.Set, 0)
	} else {
		p.Multi = append(p.Multi, c)
	}
}

// OnBound calls fn with the parts' sets showing one bound of the sets
// Walk shows at its leaves: their union (upper: every choice of every
// Multi component) or their intersection (the tuples every choice of a
// component keeps). Only the Multi components' own tuples are touched,
// in place, and hidden again. Every component must have a choice.
func OnBound(parts []Part, upper bool, fn func()) {
	for _, p := range parts {
		for _, c := range p.Multi {
			if upper {
				for k := range c.Local {
					c.AddTo(p.Set, k)
				}
				continue
			}
			c.Local[0].Range(func(i int) bool {
				for _, l := range c.Local[1:] {
					if !l.Has(i) {
						return true
					}
				}
				p.Set.Add(c.Comp[i])
				return true
			})
		}
	}
	fn()
	for _, p := range parts {
		for _, c := range p.Multi {
			for _, id := range c.Comp {
				p.Set.Remove(id)
			}
		}
	}
}

// Walk is the one cross-product walk behind every repair enumeration:
// it applies one choice per component of every part, in order (the
// last component varies fastest), and calls leaf at each combination
// with the parts' sets showing it. Components are disjoint, so the
// add/remove swap is exact, and on return every set is back to what
// it was. leaf returns false to stop; Walk reports whether it ran to
// the end. A component with no choice yields no combination.
func Walk(parts []Part, leaf func() bool) bool {
	return walk(parts, 0, 0, leaf)
}

func walk(parts []Part, pi, ci int, leaf func() bool) bool {
	for pi < len(parts) && ci == len(parts[pi].Multi) {
		pi, ci = pi+1, 0
	}
	if pi == len(parts) {
		return leaf()
	}
	set, c := parts[pi].Set, parts[pi].Multi[ci]
	for k := range c.Local {
		c.AddTo(set, k)
		cont := walk(parts, pi, ci+1, leaf)
		c.RemoveFrom(set, k)
		if !cont {
			return false
		}
	}
	return true
}

// Resolved is every component of one (priority, family) resolved to
// its choices: the preferred repairs are exactly Base plus one choice
// of every Multi component. Almost every component of a real instance
// has a single preferred choice, so Base carries nearly all of a
// repair and a consumer pays Base.Clone() plus a walk over Multi. A
// Resolved is immutable and safe to share between goroutines.
type Resolved struct {
	// Base is the union of the single choice of every single-choice
	// component. Clone before varying.
	Base *bitset.Set
	// Multi lists the remaining components in component order with
	// their choices in enumeration order. (A component with no choice
	// at all — impossible for the five families, P1 — lands here too
	// and makes every walk empty.)
	Multi []Choices
}

// Resolve computes the Resolved of the family on p: the one operation
// that needs the choices of every component. Components are sharded
// over the worker pool in chunks and served from the memo; ctx is
// checked once per chunk.
func (e *Engine) Resolve(ctx context.Context, f Family, p *priority.Priority) (*Resolved, error) {
	g := p.Graph()
	comps := g.Components()
	local, err := e.localChoicesOf(ctx, f, p, comps)
	if err != nil {
		return nil, err
	}
	part := Part{Set: bitset.New(g.Len())}
	for i, l := range local {
		part.Fold(Choices{Comp: comps[i], Local: l})
	}
	return &Resolved{Base: part.Set, Multi: part.Multi}, nil
}

// Part returns a fresh walk part over the resolved components: a
// clone of Base for the walk to vary, and Multi.
func (r *Resolved) Part() Part {
	return Part{Set: r.Base.Clone(), Multi: r.Multi}
}

// Enumerate yields every preferred repair, in the order and with the
// content of the sequential reference path. The yielded set is reused
// between calls; clone it to retain. ctx is checked before each yield;
// an early-stopping yield is reported as repair.ErrStopped.
func (r *Resolved) Enumerate(ctx context.Context, yield func(*bitset.Set) bool) error {
	part := r.Part()
	var err error
	Walk([]Part{part}, func() bool {
		if err = ctx.Err(); err != nil {
			return false
		}
		if !yield(part.Set) {
			err = repair.ErrStopped
			return false
		}
		return true
	})
	return err
}
