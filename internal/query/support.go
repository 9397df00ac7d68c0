package query

import (
	"sort"

	"prefcqa/internal/relation"
)

// Support analysis: which tuples can a closed query's verdict depend
// on?
//
// The CQA layer enumerates preferred repairs — per-relation visible
// subsets — and asks the same closed query against each. Whole-
// database enumeration is exponential in the number of conflict
// components, but a query whose evaluation never consults the active
// domain can only observe the tuples its atoms are able to bind:
// every candidate an executor considers, and every membership probe a
// residual issues, matches the atom's constant argument positions.
// The union of those per-atom constant-match sets — the touched IDs —
// is therefore a sound support: two repairs agreeing on the touched
// IDs of every relation give the query the same verdict, and the
// repair walk may fix every untouched component arbitrarily (or leave
// it invisible, which is observationally identical).
//
// The active-domain caveat is what makes the ground case generalize:
// a quantifier that falls back to domain iteration (evalQuant's slow
// path) observes the domain of the *whole* visible instance, so a
// tuple no atom mentions can still flip the verdict — e.g.
// ∃x.(x = 1 ∧ ¬S(x)) depends on whether 1 is in the domain at all.
// AnalyzeSupport refuses such queries: it requires every quantifier,
// after the same ∀ ⇒ ¬∃¬ rewrite evalQuant performs, to be
// spine-covered exactly as compileExists requires (at least one
// positive atom conjunct, every quantified variable occurring in
// one), recursively through residual conjuncts.

// RelTouched is one relation's share of a query support: either the
// whole relation (an atom with no constant arguments can bind any
// tuple) or the live tuple IDs matching some atom's constant
// positions.
type RelTouched struct {
	// All marks the whole relation touched; IDs is nil.
	All bool
	// IDs lists the touched live tuple IDs when All is false, one atom's
	// matches after another's (an ID may repeat): O(matches) in size.
	IDs []relation.TupleID
}

// Polarity is the set of signs under which a formula's atoms occur:
// negative under an odd number of NOTs; quantifiers keep the sign. A
// formula that never consults the active domain (AnalyzeSupport accepts
// it, or it is ground) sees only the visible tuples, so without Negative
// showing more of them can only turn it true, without Positive false.
type Polarity uint8

const (
	Positive Polarity = 1 << iota
	Negative
)

// PolarityOf returns the polarity of e.
func PolarityOf(e Expr) Polarity { return polarity(e, Positive) }

func polarity(e Expr, sign Polarity) Polarity {
	switch n := e.(type) {
	case Atom:
		return sign
	case Not:
		return polarity(n.Body, sign^(Positive|Negative))
	case And:
		return polarity(n.L, sign) | polarity(n.R, sign)
	case Or:
		return polarity(n.L, sign) | polarity(n.R, sign)
	case Quant:
		return polarity(n.Body, sign)
	}
	return 0
}

// Support is the result of AnalyzeSupport: per relation, the tuple
// IDs the query's verdict can depend on. Relations absent from the
// map are untouched (no atom mentions them, or no live tuple matches
// any mentioning atom's constants).
type Support struct {
	rels map[string]*RelTouched
}

// TouchedIDs reports rel's touched tuples: all=true means every tuple,
// otherwise ids (empty when the relation is untouched).
func (s *Support) TouchedIDs(rel string) (ids []relation.TupleID, all bool) {
	t, ok := s.rels[rel]
	if !ok {
		return nil, false
	}
	return t.IDs, t.All
}

// Relations lists the touched relations in sorted order.
func (s *Support) Relations() []string {
	out := make([]string, 0, len(s.rels))
	for name := range s.rels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AnalyzeSupport computes the touched tuple IDs of a closed query
// against the model's columnar backing. ok=false means the query's
// verdict may depend on tuples outside any atom's reach — some
// quantifier would fall back to active-domain iteration, or an atom
// names an absent relation — and the caller must keep the full
// repair enumeration.
func AnalyzeSupport(q Expr, m Model) (*Support, bool) {
	if !domainFree(q) {
		return nil, false
	}
	s := &Support{rels: make(map[string]*RelTouched)}
	okAll := true
	Walk(q, func(e Expr) {
		a, isAtom := e.(Atom)
		if !isAtom || !okAll {
			return
		}
		if !s.touchAtom(a, m) {
			okAll = false
		}
	})
	if !okAll {
		return nil, false
	}
	return s, true
}

// touchAtom adds the live tuple IDs matching a's constant argument
// positions to the support. An atom with no constant arguments can
// bind any tuple of the relation, so the whole relation is touched.
func (s *Support) touchAtom(a Atom, m Model) bool {
	inst, _, ok := m.Backing(a.Rel)
	if !ok {
		return false
	}
	if len(a.Args) != inst.Schema().Arity() {
		return false // Validate reports this; just decline to prune
	}
	type constPos struct {
		pos int
		val relation.Value
	}
	var consts []constPos
	for i, t := range a.Args {
		if c, isConst := t.(Const); isConst {
			consts = append(consts, constPos{pos: i, val: c.Value})
		}
	}
	rt := s.rels[a.Rel]
	if rt == nil {
		rt = &RelTouched{}
		s.rels[a.Rel] = rt
	}
	if len(consts) == 0 {
		rt.All, rt.IDs = true, nil
		return true
	}
	if rt.All {
		return true
	}
	// Seed from the most selective constant's posting, then check the
	// remaining constant positions column-wise per candidate. The
	// postings span the version chain, so each candidate is filtered
	// through Live (version prefix + tombstones).
	seed := 0
	if len(consts) > 1 {
		best := inst.IndexEstimate(consts[0].pos, consts[0].val)
		for i := 1; i < len(consts); i++ {
			if est := inst.IndexEstimate(consts[i].pos, consts[i].val); est < best {
				seed, best = i, est
			}
		}
	}
	for _, id := range inst.PostingIDs(consts[seed].pos, consts[seed].val) {
		if !inst.Live(id) {
			continue
		}
		match := true
		for i, c := range consts {
			if i == seed {
				continue
			}
			if !inst.Col(c.pos).Value(id).Equal(c.val) {
				match = false
				break
			}
		}
		if match {
			rt.IDs = append(rt.IDs, id)
		}
	}
	return true
}

// domainFree reports whether evaluating e can never consult the
// active domain: every quantifier — after the ∀ ⇒ ¬∃¬ NNF rewrite
// evalQuant performs — satisfies compileExists's coverage rule (at
// least one positive atom conjunct, every quantified variable
// occurring in one), recursively through residual conjuncts. Only
// then is the verdict a function of the visible touched tuples alone.
func domainFree(e Expr) bool {
	switch n := e.(type) {
	case Bool, Atom, Cmp:
		return true
	case Not:
		return domainFree(n.Body)
	case And:
		return domainFree(n.L) && domainFree(n.R)
	case Or:
		return domainFree(n.L) && domainFree(n.R)
	case Quant:
		body := n.Body
		if n.All {
			body = NNF(Not{Body: n.Body})
		}
		quantified := make(map[string]bool, len(n.Vars))
		for _, v := range n.Vars {
			quantified[v] = true
		}
		covered := make(map[string]bool, len(n.Vars))
		hasAtom := false
		for _, c := range flattenAnd(body) {
			if a, isAtom := c.(Atom); isAtom {
				hasAtom = true
				for _, t := range a.Args {
					if v, isVar := t.(Var); isVar && quantified[v.Name] {
						covered[v.Name] = true
					}
				}
				continue
			}
			if !domainFree(c) {
				return false
			}
		}
		if !hasAtom {
			return false
		}
		for _, v := range n.Vars {
			if !covered[v] {
				return false
			}
		}
		return true
	default:
		return false
	}
}
