package query

import (
	"slices"

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
// AnalyzeSupport refuses such queries: it requires every quantifier
// to be one the planner covers (block.covered, the verdict evalQuant
// itself acts on), recursively through residual conjuncts — the
// analysed query's domain-free verdict (Analyze).

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

// polarity returns the polarity of e's atoms when e itself occurs
// under sign (Analyzed.Pol is the query's, under Positive).
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
// IDs the query's verdict can depend on. Relations without an entry
// are untouched (no atom mentions them).
type Support struct {
	rels []relTouched // a query names a handful of relations: no map
}

// relTouched is one relation's share of a query support: either the
// whole relation (an atom with no constant arguments can bind any
// tuple) or the live tuple IDs matching some atom's constant positions,
// one atom's matches after another's (an ID may repeat): O(matches) in
// size.
type relTouched struct {
	rel string
	all bool
	ids []relation.TupleID // nil when all
}

// TouchedIDs reports rel's touched tuples: all=true means every tuple,
// otherwise ids (empty when the relation is untouched). The slice is the
// support's own; a caller that is done with the support may reuse it.
func (s Support) TouchedIDs(rel string) (ids []relation.TupleID, all bool) {
	for _, t := range s.rels {
		if t.rel == rel {
			return t.ids, t.all
		}
	}
	return nil, false
}

// AnalyzeSupport computes the touched tuple IDs of the analysed closed
// query a against the model's columnar backing: a's shape decides
// whether there is a support at all, the model's postings what it is.
// ok=false means the query's verdict may depend on tuples outside any
// atom's reach — some quantifier is not covered by positive atoms, so
// its evaluation may consult the active domain (this stays a per-query
// verdict: a block whose uncovered variable an equality binds,
// ∃x.(x = k ∧ ¬C(x, 0)), is declined although the evaluator answers it
// with one lookup), or an atom names an absent relation or has the
// wrong arity — and the verdict must be sought over the preferred
// repairs of the whole database.
func AnalyzeSupport(a *Analyzed, m Model) (s Support, ok bool) {
	if !a.domainFree {
		return s, false
	}
	ok = true
	Walk(a.Expr, func(e Expr) {
		if at, isAtom := e.(Atom); isAtom && ok {
			ok = s.touchAtom(at, m)
		}
	})
	return s, ok
}

// touchAtom adds the live tuple IDs matching a's constant argument
// positions to the support: the one tuple a ground atom names (a key
// lookup), a posting intersection otherwise. An atom with no constant
// arguments can bind any tuple of the relation, so the whole relation
// is touched.
func (s *Support) touchAtom(a Atom, m Model) bool {
	inst, _, ok := m.Backing(a.Rel)
	if !ok || len(a.Args) != inst.Schema().Arity() {
		return false // Validate reports these; just decline to prune
	}
	i := slices.IndexFunc(s.rels, func(t relTouched) bool { return t.rel == a.Rel })
	if i < 0 {
		i = len(s.rels)
		s.rels = append(s.rels, relTouched{rel: a.Rel})
	}
	rt := &s.rels[i]
	if rt.all {
		return true
	}
	consts := 0
	for _, t := range a.Args {
		if _, isConst := t.(Const); isConst {
			consts++
		}
	}
	switch consts {
	case 0:
		rt.all, rt.ids = true, nil
		return true
	case len(a.Args):
		// Every term is a constant and the arity was checked: no error.
		if id, ok, _ := atomID(inst, a, nil); ok {
			rt.ids = append(rt.ids, id)
		}
		return true
	}
	// Seed from the most selective constant's posting.
	seed, best := -1, 0
	for i, t := range a.Args {
		c, isConst := t.(Const)
		if !isConst {
			continue
		}
		est := 0
		if consts > 1 {
			est = inst.IndexEstimate(i, c.Value)
		}
		if seed < 0 || est < best {
			seed, best = i, est
		}
	}
	// Read the seed's posting onto the end of rt.ids and keep, in place,
	// the live candidates that match the remaining constant positions
	// column-wise.
	k := len(rt.ids)
	rt.ids = inst.Posting(rt.ids, seed, a.Args[seed].(Const).Value)
	kept := rt.ids[:k]
candidates:
	for _, id := range rt.ids[k:] {
		if !inst.Live(id) {
			continue
		}
		for i, t := range a.Args {
			if c, isConst := t.(Const); isConst && i != seed && !inst.Col(i).Value(id).Equal(c.Value) {
				continue candidates
			}
		}
		kept = append(kept, id)
	}
	rt.ids = kept
	return true
}
