package query

import (
	"context"

	"prefcqa/internal/relation"
)

// Prepared is a closed query compiled once against a model and
// re-evaluated many times while only the model's visibility
// changes — the vectorized half of the CQA repair sweep. The boolean
// skeleton (conjunctions, disjunctions, negations, ground leaves) is
// lowered to a small node tree; every quantifier is planned and
// vector-compiled exactly once (compileExists + compileVec, including
// the Yannakakis / WCOJ executor choice); each Eval then re-syncs the
// compiled atoms' visibility bitsets from the model's Backing and
// re-runs the executors over pooled scratch. Nothing per-repair is
// recompiled: a repair swap is a handful of pointer updates.
//
// The caller owns the visibility channel: the model's Subsets map is
// retained and mutated between Eval calls (the per-repair subsets the
// CQA walk unions in place). Prepared is not safe for concurrent use;
// evaluations share one environment and one scratch state.
type Prepared struct {
	ev       *evaluator
	m        Model
	root     pnode
	env      map[string]relation.Value
	vecAtoms []*vecAtom // every compiled atom, for visibility re-sync
}

// pnode is one node of the compiled boolean skeleton.
type pnode interface {
	eval(p *Prepared) (bool, error)
}

type pBool struct{ v bool }

func (n pBool) eval(*Prepared) (bool, error) { return n.v, nil }

type pNot struct{ b pnode }

func (n pNot) eval(p *Prepared) (bool, error) {
	v, err := n.b.eval(p)
	return !v, err
}

type pAnd struct{ l, r pnode }

func (n pAnd) eval(p *Prepared) (bool, error) {
	l, err := n.l.eval(p)
	if err != nil || !l {
		return false, err
	}
	return n.r.eval(p)
}

type pOr struct{ l, r pnode }

func (n pOr) eval(p *Prepared) (bool, error) {
	l, err := n.l.eval(p)
	if err != nil || l {
		return l, err
	}
	return n.r.eval(p)
}

// pGround is a ground atom or comparison leaf, evaluated through the
// shared evaluator (an O(1) key-index lookup against the current
// subsets for atoms, a constant fold for comparisons).
type pGround struct{ e Expr }

func (n pGround) eval(p *Prepared) (bool, error) { return p.ev.eval(n.e, p.env) }

// pQuant is one quantifier compiled to its vectorized plan. neg marks
// a universal rewritten ∀x̄.φ ⇒ ¬∃x̄.¬φ. A quantifier proven
// unsatisfiable at compile time (Plan.Unsat) needs no plan: it
// compiles to the constant pBool{neg}.
type pQuant struct {
	neg bool
	vp  *vecPlan
}

func (n *pQuant) eval(p *Prepared) (bool, error) {
	res, err := p.ev.runVec(n.vp, nil, p.env)
	return res != n.neg, err
}

// PrepareClosed compiles the closed query q against m. ok=false means
// some quantifier cannot be planned (compileExists declined: no
// positive atom conjunct, or a variable occurring only in residuals)
// and the caller must evaluate through Eval/EvalCtx instead. Queries
// accepted by AnalyzeSupport always prepare.
func PrepareClosed(m Model, q Expr) (*Prepared, bool) {
	p := &Prepared{
		m:   m,
		env: make(map[string]relation.Value),
		ev:  &evaluator{m: m, root: q, join: true},
	}
	root, ok := p.compile(q)
	if !ok {
		return nil, false
	}
	p.root = root
	return p, true
}

func (p *Prepared) compile(e Expr) (pnode, bool) {
	switch n := e.(type) {
	case Bool:
		return pBool{n.Value}, true
	case Atom:
		return pGround{n}, true
	case Cmp:
		return pGround{n}, true
	case Not:
		b, ok := p.compile(n.Body)
		if !ok {
			return nil, false
		}
		return pNot{b}, true
	case And:
		l, ok := p.compile(n.L)
		if !ok {
			return nil, false
		}
		r, ok := p.compile(n.R)
		if !ok {
			return nil, false
		}
		return pAnd{l, r}, true
	case Or:
		l, ok := p.compile(n.L)
		if !ok {
			return nil, false
		}
		r, ok := p.compile(n.R)
		if !ok {
			return nil, false
		}
		return pOr{l, r}, true
	case Quant:
		q := n
		neg := false
		if n.All {
			// Mirror evalQuant: ∀x̄.φ ≡ ¬∃x̄.¬φ.
			q = Quant{Vars: n.Vars, Body: NNF(Not{Body: n.Body})}
			neg = true
		}
		plan, ok, err := p.ev.compileExists(q, p.env)
		if err != nil || !ok {
			return nil, false
		}
		if plan.Unsat {
			return pBool{neg}, true
		}
		vp, err := p.ev.compileVec(plan, p.env)
		if err != nil {
			return nil, false
		}
		for i := range vp.atoms {
			p.vecAtoms = append(p.vecAtoms, &vp.atoms[i])
		}
		return &pQuant{neg: neg, vp: vp}, true
	default:
		return nil, false
	}
}

// Eval evaluates the prepared query against the model's current
// visibility. The compiled atoms re-read their visible subsets from
// the model's Backing (the instance and its ID universe are fixed by
// the version), the evaluator's cached active domain is dropped (a
// residual falling back to domain iteration must see the current
// view), and the executors run over pooled scratch — no plan or
// vector compilation happens per call.
func (p *Prepared) Eval(ctx context.Context) (bool, error) {
	p.ev.ctx = ctx
	p.ev.domain, p.ev.domainOK = nil, false
	for _, a := range p.vecAtoms {
		if _, vis, ok := p.m.Backing(a.rel); ok {
			a.visible = vis
		}
	}
	return p.root.eval(p)
}
