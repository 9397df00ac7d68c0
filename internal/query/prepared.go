package query

import (
	"context"

	"prefcqa/internal/relation"
)

// Prepared is a closed query compiled once against a model and
// re-evaluated many times while only the model's visibility
// changes — the CQA repair sweep. The boolean skeleton (conjunctions,
// disjunctions, negations) is lowered to a small node tree; every
// quantifier the planner covers is compiled exactly once (compileBlock,
// including the executor choice); each Eval then re-syncs the compiled
// atoms' visibility bitsets from the model's Backing and re-runs the
// executors over the pooled run state. Nothing per-repair is recompiled: a repair swap
// is a handful of pointer updates. What has no plan — a quantifier-free
// subformula, a block the planner refuses — is a leaf the tree
// evaluator answers on each Eval, exactly as Eval would.
//
// The caller owns the visibility channel: the model's Subsets map is
// retained and mutated between Eval calls (the per-repair subsets the
// CQA walk unions in place). Prepared is not safe for concurrent use;
// evaluations share one environment and one scratch state.
type Prepared struct {
	ev       evaluator
	root     pnode
	env      map[string]relation.Value
	vecAtoms []*vecAtom // every compiled atom, for visibility re-sync
}

// pnode is one node of the compiled boolean skeleton.
type pnode struct {
	op   pop
	l, r *pnode // pNot: l; pAnd, pOr: both
	// e is a subformula left to the tree evaluator (pLeaf): a
	// quantifier-free one (an O(1) key-index lookup against the current
	// subsets per atom, a constant fold per comparison) or a quantifier
	// the planner refuses (range-restricted and, if need be, iterated
	// over the active domain of the current view).
	e Expr
	// vp is one quantifier compiled to its vectorized plan (pQuant); neg
	// marks a universal rewritten ∀x̄.φ ⇒ ¬∃x̄.¬φ. A quantifier proven
	// unsatisfiable at compile time (Plan.Unsat) needs no plan: it
	// compiles to the constant neg (pConst).
	vp  *vecPlan
	neg bool
}

type pop uint8

const (
	pLeaf pop = iota
	pConst
	pQuant
	pNot
	pAnd
	pOr
)

func (p *Prepared) eval(n *pnode) (bool, error) {
	switch n.op {
	case pLeaf:
		return p.ev.eval(n.e, p.env)
	case pConst:
		return n.neg, nil
	case pQuant:
		res, err := p.ev.runVec(n.vp, nil, p.env)
		return res != n.neg, err
	case pNot:
		v, err := p.eval(n.l)
		return !v, err
	case pAnd:
		l, err := p.eval(n.l)
		if err != nil || !l {
			return false, err
		}
		return p.eval(n.r)
	default: // pOr
		l, err := p.eval(n.l)
		if err != nil || l {
			return l, err
		}
		return p.eval(n.r)
	}
}

// PrepareClosed compiles the analysed closed query a against m. It is
// total: Eval answers exactly what EvalCtx answers on the model's
// visibility at that moment, errors included.
func PrepareClosed(m Model, a *Analyzed) *Prepared {
	p := &Prepared{ev: evaluator{m: m, root: a.Expr, join: true}}
	if !IsQuantifierFree(a.Expr) {
		// Only a quantifier binds anything: a ground query reads a nil
		// environment.
		p.env = make(map[string]relation.Value)
	}
	p.root = p.compile(a.Expr)
	return p
}

func (p *Prepared) compile(e Expr) pnode {
	if IsQuantifierFree(e) {
		return pnode{op: pLeaf, e: e}
	}
	sub := func(e Expr) *pnode { n := p.compile(e); return &n }
	switch n := e.(type) {
	case Not:
		return pnode{op: pNot, l: sub(n.Body)}
	case And:
		return pnode{op: pAnd, l: sub(n.L), r: sub(n.R)}
	case Or:
		return pnode{op: pOr, l: sub(n.L), r: sub(n.R)}
	case Quant:
		b := n.blk
		if !b.covered {
			break
		}
		vp, err := p.ev.compileBlock(*b, p.env)
		if err != nil {
			break // the leaf reports it
		}
		if vp.plan.Unsat {
			return pnode{op: pConst, neg: b.neg}
		}
		for i := range vp.atoms {
			p.vecAtoms = append(p.vecAtoms, &vp.atoms[i])
		}
		return pnode{op: pQuant, vp: vp, neg: b.neg}
	}
	return pnode{op: pLeaf, e: e}
}

// Eval evaluates the prepared query against the model's current
// visibility. The compiled atoms re-read their visible subsets from
// the model's Backing (the instance and its ID universe are fixed by
// the version), the evaluator's cached active domain is dropped (a
// block falling back to domain iteration must see the current view),
// and the executors run over the pooled run state — nothing is compiled
// per call.
func (p *Prepared) Eval(ctx context.Context) (bool, error) {
	p.ev.ctx = ctx
	p.ev.domain, p.ev.domainOK = nil, false
	for _, a := range p.vecAtoms {
		if _, vis, ok := p.ev.m.Backing(a.rel); ok {
			a.visible = vis
		}
	}
	return p.eval(&p.root)
}
