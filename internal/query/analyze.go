package query

import "slices"

// Analysis: what a query's shape says about how to answer it, derived
// once per query and read by every evaluation of it.
//
// Analyze turns a parsed formula into an Analyzed query: every
// quantifier of the formula carries its analysed block (Quant.blk), and
// the query carries its sorted free variables, its polarity, whether it
// is domain-free and — for an open query — the block of its
// existential closure. The evaluator, Prepared, the support analysis and
// the open enumeration all read these instead of re-deriving them, so
// none of them can disagree with another about the same quantifier, and
// what depends only on the text is paid once per text: a serving layer
// that keeps the Analyzed of a text answers each repeat of it with only
// the work that depends on the data (posting lookups and the compile
// against the request's visibility).

// Analyzed is a query analysed once. It is immutable and safe to share
// between concurrent evaluations.
type Analyzed struct {
	// Expr is the query, every quantifier carrying its analysed block.
	// It prints and walks as the formula it was made from.
	Expr Expr
	// Free lists the free variables in sorted order; empty when the
	// query is closed.
	Free []string
	// Pol is the polarity of the query's atoms: the signs under which
	// they occur (see Polarity).
	Pol Polarity

	// domainFree: the evaluation never consults the active domain, every
	// quantifier being a covered block, recursively through residual
	// conjuncts; only then is the verdict a function of the visible
	// tuples the atoms reach (AnalyzeSupport).
	domainFree bool
	// open is how EnumerateOpen generates an open query's candidates;
	// nil when the query is closed.
	open *openQuery
}

// Analyze analyses e once. Analysing an already analysed formula reuses
// the blocks it carries.
func Analyze(e Expr) *Analyzed {
	e, df, _ := annotate(e)
	a := &Analyzed{Expr: e, Free: FreeVars(e), Pol: polarity(e, Positive), domainFree: df}
	if len(a.Free) > 0 {
		a.open = analyzeOpen(e, a.Free)
	}
	return a
}

// annotate returns e with every quantifier carrying its analysed block,
// whether e is domain-free, and whether e had a quantifier to annotate:
// a node is rebuilt only then, so a query is analysed without copying
// what has no quantifier under it.
func annotate(e Expr) (Expr, bool, bool) {
	switch n := e.(type) {
	case Bool, Atom, Cmp:
		return e, true, false
	case Not:
		body, df, changed := annotate(n.Body)
		if changed {
			e = Not{Body: body}
		}
		return e, df, changed
	case And:
		l, dl, cl := annotate(n.L)
		r, dr, cr := annotate(n.R)
		if cl || cr {
			e = And{L: l, R: r}
		}
		return e, dl && dr, cl || cr
	case Or:
		l, dl, cl := annotate(n.L)
		r, dr, cr := annotate(n.R)
		if cl || cr {
			e = Or{L: l, R: r}
		}
		return e, dl && dr, cl || cr
	case Quant:
		if n.blk != nil {
			return n, n.blk.domainFree, false
		}
		b := analyzeBlock(n)
		n.blk = &b
		if !n.All {
			n.Body = b.body // the same formula, its quantifiers annotated
		}
		return n, b.domainFree, true
	default:
		return e, false, false
	}
}

// annotated is e with every quantifier carrying its analysed block: all
// the planned evaluation of a one-off formula (EvalCtx) needs.
func annotated(e Expr) Expr {
	e, _, _ = annotate(e)
	return e
}

// flattenAnd returns the conjuncts of an And-tree.
func flattenAnd(e Expr) []Expr {
	if a, ok := e.(And); ok {
		return append(flattenAnd(a.L), flattenAnd(a.R)...)
	}
	return []Expr{e}
}

// block is the analysed shape of one quantifier, read as an existential
// block: the one place that knows the ∀ ⇒ ¬∃¬ rewrite, what the
// conjuncts of the body are, whether the planner can answer the block
// and, when it cannot, what range restriction leaves of it.
type block struct {
	// neg marks a universal, rewritten ∀x̄.φ ≡ ¬∃x̄.¬φ (which the planner
	// can often handle, e.g. guarded universals NOT R(x̄) OR ψ): vars and
	// body describe the existential, whose verdict is to be negated.
	// vars is the quantifier's list as a set, first occurrence kept:
	// EXISTS a, a . φ quantifies one variable, and the compiled plan
	// gives every entry a binding slot that some atom must fill. body's
	// own quantifiers are analysed.
	neg  bool
	vars []string
	body Expr
	// atoms are the positive relational atoms among the top-level
	// conjuncts of body; residual is every other conjunct (comparisons —
	// the equalities the peel reads among them — negated atoms,
	// disjunctions, nested quantifiers), in order.
	atoms    []Atom
	residual []Expr
	// covered is the coverage rule: at least one positive atom conjunct,
	// every quantified variable occurring in one. Enumerating the atoms'
	// matches then enumerates every candidate binding; a block that is
	// not covered needs its variables equated to a value or the active
	// domain iterated.
	covered bool
	// domainFree: covered, and every residual domain-free.
	domainFree bool
	// peel and rest are the range restriction of a block that is not
	// covered (see peelEnv); rest is nil when nothing peels.
	peel []peeled
	rest *block
}

// peeled is a block variable a top-level equality of the body binds:
// to a constant, or to a variable bound outside the block.
type peeled struct {
	name string
	to   Term
}

func analyzeBlock(q Quant) block {
	b := block{neg: q.All, vars: q.Vars, body: q.Body}
	for i, v := range q.Vars {
		if slices.Contains(q.Vars[:i], v) {
			b.vars = slices.Clone(q.Vars[:i])
			for _, w := range q.Vars[i+1:] {
				if !slices.Contains(b.vars, w) {
					b.vars = append(b.vars, w)
				}
			}
			break
		}
	}
	if q.All {
		b.body = Negate(q.Body)
	}
	var df bool
	b.body, df, _ = annotate(b.body)
	for _, c := range flattenAnd(b.body) {
		if a, ok := c.(Atom); ok {
			b.atoms = append(b.atoms, a)
		} else {
			b.residual = append(b.residual, c)
		}
	}
	b.covered = coveredBy(b.atoms, b.vars)
	// The body is the conjunction of atoms, always domain-free, and the
	// residuals.
	b.domainFree = b.covered && df
	if !b.covered {
		b.peelPlan()
	}
	return b
}

// coveredBy is the coverage rule for the variables vars.
func coveredBy(atoms []Atom, vars []string) bool {
	if len(atoms) == 0 {
		return false
	}
	for _, v := range vars {
		if !occursIn(atoms, v) {
			return false
		}
	}
	return true
}

// occursIn reports whether the variable is an argument of one of the
// atoms.
func occursIn(atoms []Atom, name string) bool {
	for _, a := range atoms {
		for _, t := range a.Args {
			if v, ok := t.(Var); ok && v.Name == name {
				return true
			}
		}
	}
	return false
}

// peelPlan range-restricts the block: a block variable that a top-level
// conjunct of the body equates to a constant, or to a variable bound
// outside the block, can only take that value — which is a domain value
// already (the domain holds the formula's constants, and an outer
// variable was bound to a domain value) — so it is bound instead of
// being searched for. Equalities under OR or NOT, and between two
// variables of the block, restrict nothing on their own and are left
// alone; the first equality that binds a variable wins. rest is the
// block over the variables left (same body: the equality that bound a
// variable holds trivially under the binding), which the planner may
// cover now.
func (b *block) peelPlan() {
	for _, c := range b.residual {
		eq, ok := c.(Cmp)
		if !ok || eq.Op != EQ {
			continue
		}
		for _, side := range [2][2]Term{{eq.L, eq.R}, {eq.R, eq.L}} {
			x, ok := side[0].(Var)
			if !ok || !slices.Contains(b.vars, x.Name) || slices.ContainsFunc(b.peel, func(p peeled) bool { return p.name == x.Name }) {
				continue
			}
			switch o := side[1].(type) {
			case Const:
				b.peel = append(b.peel, peeled{x.Name, o})
			case Var:
				// A block variable of that name shadows an outer one.
				if !slices.Contains(b.vars, o.Name) {
					b.peel = append(b.peel, peeled{x.Name, o})
				}
			}
		}
	}
	if len(b.peel) == 0 {
		return
	}
	rest := block{neg: b.neg, body: b.body, atoms: b.atoms, residual: b.residual}
	for _, v := range b.vars {
		if !slices.ContainsFunc(b.peel, func(p peeled) bool { return p.name == v }) {
			rest.vars = append(rest.vars, v)
		}
	}
	rest.covered = coveredBy(rest.atoms, rest.vars)
	b.rest = &rest
}
