package query

import (
	"context"
	"fmt"
	"slices"

	"prefcqa/internal/bitset"
	"prefcqa/internal/relation"
)

// DBModel is the finite first-order structure a formula is evaluated
// against: a database plus one visible tuple-ID subset per relation.
// A nil (or absent) subset means every live tuple of the relation is
// visible. Repairs are evaluated as such views — the one instance
// plus a subset — without materializing the repair (Definition 3:
// every repair is a tuple subset of the instance).
type DBModel struct {
	DB      *relation.Database
	Subsets map[string]*bitset.Set
}

// Model is the structure formulas are evaluated against. There is one
// kind of model; the name predates DBModel and is kept for callers
// that spell the parameter type.
type Model = DBModel

// Relations lists the relation names in the model.
func (m DBModel) Relations() []string { return m.DB.Names() }

// Backing returns the instance holding rel's storage (columns and
// postings) and the visible ID subset (nil = every live tuple).
// ok=false means the relation is absent.
func (m DBModel) Backing(rel string) (inst *relation.Instance, visible *bitset.Set, ok bool) {
	inst, ok = m.DB.Relation(rel)
	if !ok {
		return nil, nil, false
	}
	return inst, m.Subsets[rel], true
}

// Eval evaluates a closed formula over the model in the standard
// model-theoretic sense (r' |= Q), with quantifiers ranging over the
// active domain of the model extended with the formula's constants.
// It returns an error on free variables, unknown relations, arity
// mismatches, or order comparisons over names.
//
// Existential quantifiers whose body is a conjunction with relational
// atoms covering all quantified variables are compiled into a
// physical plan (compileBlock, plan.go) — per-atom access-path
// selection (index probe on attributes whose value is known, full ID
// range otherwise), selectivity-ordered join ordering, residual
// conjuncts evaluated under the completed binding — and run by one of
// the three vectorized executors (vector.go, yannakakis.go, wcoj.go). This is
// sound for active-domain semantics: a satisfying assignment must
// match the atoms, and matched tuples only carry active-domain
// values.
//
// A block the planner refuses is range-restricted first
// (block.peelPlan): a variable that a top-level conjunct of the body
// equates to a constant or to a variable bound outside the block is
// bound to that value — the only one it can take, and a domain value
// already — and what is left of the block is offered to the planner
// again.
//
// Only a variable that is neither planned nor equated falls back to
// domain iteration, with the active domain collected lazily — a query
// that never needs domain iteration (a ground query, or one fully
// answered by plans and equalities) never scans the model. EvalNaive
// skips the planner and the range restriction entirely.
func Eval(e Expr, m Model) (bool, error) {
	return EvalCtx(nil, e, m)
}

// EvalCtx is Eval with cancellation: a non-nil ctx is checked
// periodically as candidate rows and domain values are iterated, so
// a deadline aborts a long evaluation with ctx.Err() mid-join
// instead of running to completion. A nil ctx disables the checks.
func EvalCtx(ctx context.Context, e Expr, m Model) (bool, error) {
	return (&evaluator{m: m, root: annotated(e), join: true, ctx: ctx}).run()
}

// EvalTrace is Eval, additionally returning the physical plans that
// were compiled and executed (with estimated and actual row counts)
// for EXPLAIN-style diagnostics.
func EvalTrace(e Expr, m Model) (bool, *Trace, error) {
	return EvalTraceCtx(nil, e, m)
}

// EvalTraceCtx is EvalTrace with the cancellation behavior of
// EvalCtx.
func EvalTraceCtx(ctx context.Context, e Expr, m Model) (bool, *Trace, error) {
	tr := &Trace{}
	res, err := (&evaluator{m: m, root: annotated(e), join: true, trace: tr, ctx: ctx}).run()
	return res, tr, err
}

// EvalNaive is Eval with the planner and the range restriction
// disabled: quantifiers always iterate the active domain. It is the
// reference the planned executors are tested against.
func EvalNaive(e Expr, m Model) (bool, error) {
	return (&evaluator{m: m, root: e}).run()
}

// run evaluates the evaluator's root formula, which must be closed.
func (ev *evaluator) run() (bool, error) {
	if fv := FreeVars(ev.root); len(fv) != 0 {
		return false, fmt.Errorf("query: formula is not closed, free variables %v", fv)
	}
	if ev.ctx != nil {
		if err := ev.ctx.Err(); err != nil {
			return false, err
		}
	}
	return ev.eval(ev.root, map[string]relation.Value{})
}

// activeDomain collects the distinct values of all visible tuples,
// read off the columns, plus the formula's constants, deduplicated per
// kind on the native value.
func activeDomain(m Model, e Expr) []relation.Value {
	ints := map[int64]struct{}{}
	names := map[string]struct{}{}
	var out []relation.Value
	add := func(v relation.Value) {
		if v.Kind() == relation.KindInt {
			if _, dup := ints[v.AsInt()]; dup {
				return
			}
			ints[v.AsInt()] = struct{}{}
		} else {
			if _, dup := names[v.AsName()]; dup {
				return
			}
			names[v.AsName()] = struct{}{}
		}
		out = append(out, v)
	}
	for _, rel := range m.Relations() {
		inst, visible, _ := m.Backing(rel)
		cols := make([]relation.Col, inst.Schema().Arity())
		for a := range cols {
			cols[a] = inst.Col(a)
		}
		row := func(id relation.TupleID) bool {
			if id < inst.NumIDs() {
				for _, c := range cols {
					add(c.Value(id))
				}
			}
			return true
		}
		if visible == nil {
			inst.RangeIDs(row)
		} else {
			visible.Range(row)
		}
	}
	for _, v := range Constants(e) {
		add(v)
	}
	return out
}

type evaluator struct {
	m    Model
	root Expr // the formula being evaluated, annotated (see Analyze); its constants join the domain
	// domain is the active domain, collected lazily by dom(): only a
	// quantifier that actually falls back to domain iteration pays
	// the full model scan. domainOK marks it collected (the domain of
	// an empty model is legitimately nil).
	domain   []relation.Value
	domainOK bool
	join     bool   // enable the plan-based fast path
	trace    *Trace // when non-nil, collect executed plans
	// greedyOnly disables the Yannakakis and generic-join executors,
	// for ablation.
	greedyOnly bool
	// ctx, when non-nil, cancels the evaluation: tick() samples it
	// every few hundred iterated candidates (plan rows and domain
	// values), bounding how far past a deadline an evaluation runs.
	ctx   context.Context
	steps int
}

// tick reports the context's cancellation, sampled every 256 calls
// to keep the per-row overhead negligible. It is called per candidate
// by every loop of every executor, and written to fit the compiler's
// inlining budget: a nil context costs one compare in the caller's loop.
func (ev *evaluator) tick() error {
	if ev.ctx != nil {
		if ev.steps++; ev.steps&255 == 0 {
			return ev.ctx.Err()
		}
	}
	return nil
}

// dom returns the active domain, collecting it on first use.
func (ev *evaluator) dom() []relation.Value {
	if !ev.domainOK {
		ev.domain = activeDomain(ev.m, ev.root)
		ev.domainOK = true
	}
	return ev.domain
}

func (ev *evaluator) eval(e Expr, env map[string]relation.Value) (bool, error) {
	switch n := e.(type) {
	case Bool:
		return n.Value, nil
	case Atom:
		return ev.evalAtom(n, env)
	case Cmp:
		return ev.evalCmp(n, env)
	case Not:
		v, err := ev.eval(n.Body, env)
		return !v, err
	case And:
		l, err := ev.eval(n.L, env)
		if err != nil || !l {
			return false, err
		}
		return ev.eval(n.R, env)
	case Or:
		l, err := ev.eval(n.L, env)
		if err != nil || l {
			return l, err
		}
		return ev.eval(n.R, env)
	case Quant:
		return ev.evalQuant(n, env)
	default:
		return false, fmt.Errorf("query: cannot evaluate node %T", e)
	}
}

// evalQuant answers a quantifier from its analysed block: a plan when
// the planner covers it; otherwise what the body equates to a value is
// bound, what is left is offered to the planner again, and only
// variables neither step answers iterate the domain.
func (ev *evaluator) evalQuant(q Quant, env map[string]relation.Value) (bool, error) {
	if !ev.join {
		return ev.iterate(q, env, 0)
	}
	b := q.blk
	if b.rest != nil {
		var err error
		if env, err = b.peelEnv(env); err != nil {
			return false, err
		}
		b = b.rest
	}
	var res bool
	var err error
	switch {
	case len(b.vars) == 0: // every variable was equated to a value
		res, err = ev.eval(b.body, env)
	case b.covered:
		res, err = ev.evalPlanned(*b, env)
	default:
		res, err = ev.iterate(Quant{Vars: b.vars, Body: b.body}, env, 0)
	}
	return res != b.neg, err
}

// iterate answers the quantifier by active-domain iteration over its
// variables from the i-th on. A variable the list repeats is bound once:
// EXISTS a, a . φ is EXISTS a . φ.
func (ev *evaluator) iterate(q Quant, env map[string]relation.Value, i int) (bool, error) {
	if i == len(q.Vars) {
		return ev.eval(q.Body, env)
	}
	name := q.Vars[i]
	if slices.Contains(q.Vars[:i], name) {
		return ev.iterate(q, env, i+1)
	}
	saved, had := env[name]
	defer func() {
		if had {
			env[name] = saved
		} else {
			delete(env, name)
		}
	}()
	for _, v := range ev.dom() {
		if err := ev.tick(); err != nil {
			return false, err
		}
		env[name] = v
		res, err := ev.iterate(q, env, i+1)
		if err != nil {
			return false, err
		}
		if q.All && !res {
			return false, nil
		}
		if !q.All && res {
			return true, nil
		}
	}
	return q.All, nil
}

// evalPlanned answers a covered block with a physical plan.
func (ev *evaluator) evalPlanned(b block, env map[string]relation.Value) (bool, error) {
	vp, err := ev.compileBlock(b, env)
	if err != nil {
		return false, err
	}
	var exec *PlanExec
	if ev.trace != nil {
		exec = &PlanExec{Plan: vp.plan, ActRows: make([]int, len(vp.plan.Steps))}
		ev.trace.Execs = append(ev.trace.Execs, exec)
	}
	if vp.plan.Unsat {
		return false, nil
	}
	return ev.runVec(vp, exec, env)
}

// peelEnv is env extended with the bindings of the block's peeled
// variables (block.peelPlan), for evaluating b.rest; env itself is left
// as it was. A closed formula binds every variable not quantified here
// before the quantifier is reached, so an outer variable a peel reads
// is bound.
func (b *block) peelEnv(env map[string]relation.Value) (map[string]relation.Value, error) {
	bound := make(map[string]relation.Value, len(env)+len(b.peel))
	for name, v := range env {
		bound[name] = v
	}
	for _, p := range b.peel {
		v, err := resolve(p.to, env)
		if err != nil {
			return nil, err
		}
		bound[p.name] = v
	}
	return bound, nil
}

func resolve(t Term, env map[string]relation.Value) (relation.Value, error) {
	switch x := t.(type) {
	case Const:
		return x.Value, nil
	case Var:
		v, ok := env[x.Name]
		if !ok {
			return relation.Value{}, errUnbound(x.Name)
		}
		return v, nil
	default:
		return relation.Value{}, fmt.Errorf("query: unknown term %T", t)
	}
}

// atomID resolves an atom whose arguments are all known — constants, or
// variables env binds — to the ID of the live tuple of inst it names.
// ok=false means inst has no such tuple.
func atomID(inst *relation.Instance, a Atom, env map[string]relation.Value) (id relation.TupleID, ok bool, err error) {
	schema := inst.Schema()
	if len(a.Args) != schema.Arity() {
		return 0, false, errArity(a.Rel, schema.Arity(), len(a.Args))
	}
	tup := make(relation.Tuple, len(a.Args))
	for i, t := range a.Args {
		v, err := resolve(t, env)
		if err != nil {
			return 0, false, err
		}
		// A value of the wrong kind cannot be in the relation.
		if v.Kind() != schema.Attr(i).Kind {
			return 0, false, nil
		}
		tup[i] = v
	}
	id, ok = inst.Lookup(tup)
	return id, ok, nil
}

func (ev *evaluator) evalAtom(a Atom, env map[string]relation.Value) (bool, error) {
	inst, visible, ok := ev.m.Backing(a.Rel)
	if !ok {
		return false, errUnknownRelation(a.Rel)
	}
	id, ok, err := atomID(inst, a, env)
	return ok && (visible == nil || visible.Has(id)), err
}

func (ev *evaluator) evalCmp(c Cmp, env map[string]relation.Value) (bool, error) {
	l, err := resolve(c.L, env)
	if err != nil {
		return false, err
	}
	r, err := resolve(c.R, env)
	if err != nil {
		return false, err
	}
	return cmpHolds(c.Op, l, r), nil
}
