package query

import (
	"context"
	"fmt"
	"slices"

	"prefcqa/internal/relation"
)

// Open-query enumeration.
//
// An open query (free variables x̄) asks for the bindings that make it
// true. Trying every active-domain combination pays |domain|^k closed
// evaluations. EnumerateOpen instead compiles the query ONCE, as its
// existential closure ∃x̄.φ with the top-level existential prefixes
// peeled in, and generates candidate bindings from three sources:
//
//   - the spine: the positive atoms among the top-level conjuncts, over
//     the variables those atoms mention, enumerated straight off the
//     columnar data by the vectorized executors (Yannakakis reduction,
//     generic join, greedy nested loop) with an emit hook attached, so
//     every spine match surfaces its values instead of short-circuiting
//     the EXISTS. A query with no positive atom has one empty match;
//   - pins: a free variable the spine does not bind, which a top-level
//     equality equates to a constant or to a spine variable, takes that
//     value — the only one it can take;
//   - ranges: any other free variable ranges over the active domain,
//     as an uncovered quantified variable of a closed query does
//     (evaluator.dom). Each multiplies the candidates by the domain's
//     size, so MaxOpenVariables bounds them.
//
// The enumeration is a SUPERSET of the query's satisfying bindings over
// any sub-instance of m: the atoms are monotone, so a binding that
// satisfies the query somewhere matches the spine over m, and it
// satisfies the top-level equalities, so a pinned variable holds its
// pin. Residual conjuncts the vectorized runtime cannot express
// (negations, disjunctions, nested quantifiers, comparisons naming a
// variable the spine does not bind) are dropped during candidate
// generation, because they are not monotone in the visible instance and
// the caller typically re-checks candidates under different
// sub-instances anyway (the CQA layer verifies each candidate with a
// full certain-answer check). Comparisons over spine variables ARE
// checked — they depend only on the binding, never on the data. Callers
// that need exact satisfaction must verify each yielded binding.

// MaxOpenVariables bounds the free variables an open query may range
// over the active domain: each multiplies its candidates by the
// domain's size.
const MaxOpenVariables = 4

// OpenSpine describes a completed enumeration: the free variables in
// yield order, the executor that ran the spine and how many free
// variables ranged over the active domain. Vars is the analysed query's
// Free, shared with every evaluation of it: read-only.
type OpenSpine struct {
	Vars     []string
	Executor string
	Ranged   int
}

// openQuery is what EnumerateOpen compiles for an open query: the spine
// block and, per free variable, where its values come from.
type openQuery struct {
	spine  block
	vars   []openVar // aligned with Analyzed.Free
	ranged []int     // the free variables (indexes into vars) that range
}

// openVar is where a free variable's values come from: the spine
// variable in slot (its own, or the one an equality pins it to); with
// slot -1, the constant val an equality pins it to, or — not pinned —
// the active domain.
type openVar struct {
	slot   int
	pinned bool
	val    relation.Value
}

// analyzeOpen analyses the open query e with the sorted free variables
// free (see the comment at the top of the file).
func analyzeOpen(e Expr, free []string) *openQuery {
	vars := slices.Clone(free)
	for {
		q, ok := e.(Quant)
		if !ok || q.All {
			break
		}
		for _, v := range q.Vars {
			if !slices.Contains(vars, v) {
				vars = append(vars, v)
			}
		}
		e = q.Body
	}
	b := analyzeBlock(Quant{Vars: vars, Body: e})
	o := &openQuery{spine: block{atoms: b.atoms, residual: b.residual}}
	for _, v := range b.vars {
		if occursIn(b.atoms, v) {
			o.spine.vars = append(o.spine.vars, v)
		}
	}
	o.vars = make([]openVar, len(free))
	for i, x := range free {
		if o.vars[i] = o.pin(x); o.vars[i].slot < 0 && !o.vars[i].pinned {
			o.ranged = append(o.ranged, i)
		}
	}
	return o
}

// pin says where the free variable x's values come from: its spine
// slot, or else the first top-level equality that equates it to a
// constant or to a spine variable; slot -1 and not pinned when neither.
func (o *openQuery) pin(x string) openVar {
	if s := slices.Index(o.spine.vars, x); s >= 0 {
		return openVar{slot: s}
	}
	for _, c := range o.spine.residual {
		eq, ok := c.(Cmp)
		if !ok || eq.Op != EQ {
			continue
		}
		for _, side := range [2][2]Term{{eq.L, eq.R}, {eq.R, eq.L}} {
			if v, ok := side[0].(Var); !ok || v.Name != x {
				continue
			}
			switch t := side[1].(type) {
			case Const:
				return openVar{slot: -1, pinned: true, val: t.Value}
			case Var:
				if s := slices.Index(o.spine.vars, t.Name); s >= 0 {
					return openVar{slot: s}
				}
			}
		}
	}
	return openVar{slot: -1}
}

// EnumerateOpen enumerates candidate free-variable bindings of the
// analysed open query a over m. yield receives the values aligned with
// OpenSpine.Vars (a.Free: sorted free-variable order); the slice is
// reused across calls and must be copied to retain. Returning false
// stops the enumeration. Duplicate bindings may be yielded (one per
// spine match); callers dedupe. A query ranging more than
// MaxOpenVariables free variables is refused before anything is
// yielded.
func EnumerateOpen(ctx context.Context, m Model, a *Analyzed, yield func(vals []relation.Value) bool) (*OpenSpine, error) {
	o := a.open
	if o == nil {
		return nil, fmt.Errorf("query: open enumeration of a closed query")
	}
	if len(o.ranged) > MaxOpenVariables {
		return nil, fmt.Errorf("query: open query ranges %d free variables over the active domain, limit %d",
			len(o.ranged), MaxOpenVariables)
	}
	ev := &evaluator{m: m, root: a.Expr, join: true, ctx: ctx}
	spine := &OpenSpine{Vars: a.Free, Ranged: len(o.ranged)}
	out := make([]relation.Value, len(a.Free))
	for i, v := range o.vars {
		if v.pinned {
			out[i] = v.val
		}
	}
	// emit completes one spine match into candidates; true means yield
	// stopped the enumeration.
	emit := func(vals []relation.Value) (bool, error) {
		for i, v := range o.vars {
			if v.slot >= 0 {
				out[i] = vals[v.slot]
			}
		}
		return ev.rangeOpen(out, o.ranged, yield)
	}
	if len(o.spine.atoms) == 0 {
		_, err := emit(nil)
		return spine, err
	}
	env := map[string]relation.Value{}
	vp, err := ev.compileBlock(o.spine, env)
	if err != nil {
		return nil, err
	}
	if vp.plan.Unsat {
		// A compile-known kind mismatch: the spine is empty for every
		// binding, so the enumeration succeeds with zero candidates.
		spine.Executor = "unsat"
		return spine, nil
	}
	// Drop the residuals the vector runtime cannot express: they are
	// not monotone, so checking them here would make the candidate set
	// unsound rather than merely loose (see the comment at the top).
	vp.complex = nil
	// Stopping the search is signaled as "found": runVec's boolean
	// result is meaningless in enumeration mode either way.
	vp.emit = emit
	exec := &PlanExec{Plan: vp.plan, ActRows: make([]int, len(vp.plan.Steps))}
	if _, err := ev.runVec(vp, exec, env); err != nil {
		return nil, err
	}
	spine.Executor = exec.Executor
	return spine, nil
}

// rangeOpen yields out once per combination of active-domain values of
// the free variables ranged (indexes into out); true means yield
// stopped it.
func (ev *evaluator) rangeOpen(out []relation.Value, ranged []int, yield func([]relation.Value) bool) (bool, error) {
	if len(ranged) == 0 {
		return !yield(out), nil
	}
	for _, v := range ev.dom() {
		if err := ev.tick(); err != nil {
			return true, err
		}
		out[ranged[0]] = v
		if stop, err := ev.rangeOpen(out, ranged[1:], yield); stop || err != nil {
			return stop, err
		}
	}
	return false, nil
}
