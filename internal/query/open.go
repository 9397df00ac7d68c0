package query

import (
	"context"

	"prefcqa/internal/relation"
)

// Direct open-query enumeration.
//
// An open query (free variables x̄) asks for the bindings that make it
// true. The substitution strategy — try every active-domain
// combination, evaluate the closed instance — pays |domain|^k closed
// evaluations. EnumerateOpen instead compiles the query ONCE, as the
// existential closure ∃x̄.φ, and enumerates the satisfying bindings of
// the positive conjunctive spine straight off the columnar data: the
// vectorized executors (Yannakakis reduction, generic join, greedy
// nested loop) run with an emit hook attached, so every spine match
// surfaces its free-variable values instead of short-circuiting the
// EXISTS.
//
// The enumeration is a SUPERSET of the query's satisfying bindings:
// residual conjuncts the vectorized runtime cannot express
// (negations, disjunctions, nested quantifiers) are dropped during
// candidate generation, because they are not monotone in the visible
// instance and the caller typically re-checks candidates under
// different sub-instances anyway (the CQA layer verifies each
// candidate with a full certain-answer check). Comparison residuals
// ARE checked — they depend only on the binding, never on the data.
// Callers that need exact satisfaction must verify each yielded
// binding.

// OpenUnsupportedError reports why a query has no direct
// open-enumeration path and the caller must fall back to
// active-domain substitution.
type OpenUnsupportedError struct {
	Reason string
}

func (e *OpenUnsupportedError) Error() string {
	return "query: direct open enumeration unavailable: " + e.Reason
}

// OpenSpine describes a completed enumeration: the free variables in
// yield order, the executor that ran the spine, and how many spine
// matches were emitted (before any caller-side dedup). Vars is the
// analysed query's Free, shared with every evaluation of it: read-only.
type OpenSpine struct {
	Vars     []string
	Executor string
	Matches  int
}

// EnumerateOpen enumerates candidate free-variable bindings of the
// analysed open query a over m. yield receives the values aligned with
// OpenSpine.Vars (a.Free: sorted free-variable order); the slice is
// reused across calls and must be copied to retain. Returning false
// stops the enumeration. Duplicate bindings may be yielded (one per
// spine match); callers dedupe.
//
// The spine is the query's existential closure with its top-level
// existential prefixes peeled into it (analysed once, see Analyze). The
// error is *OpenUnsupportedError when the query's shape has no direct
// path — free variables not covered by positive atoms, or a
// non-conjunctive top level — in which case nothing was yielded.
func EnumerateOpen(ctx context.Context, m Model, a *Analyzed, yield func(vals []relation.Value) bool) (*OpenSpine, error) {
	if a.open == nil {
		return nil, &OpenUnsupportedError{Reason: "query is closed (no free variables)"}
	}
	if !a.open.covered {
		return nil, &OpenUnsupportedError{Reason: "spine is not a positive conjunctive cover of the free variables"}
	}
	free := a.Free
	ev := &evaluator{m: m, root: a.Expr, join: true, ctx: ctx}
	env := map[string]relation.Value{}
	vp, err := ev.compileBlock(*a.open, env)
	if err != nil {
		return nil, err
	}
	spine := &OpenSpine{Vars: free}
	if vp.plan.Unsat {
		// A compile-known kind mismatch: the spine is empty for every
		// binding, so the enumeration succeeds with zero candidates.
		spine.Executor = "unsat"
		return spine, nil
	}
	// Drop the residuals the vector runtime cannot express: they are
	// not monotone, so checking them here would make the candidate set
	// unsound rather than merely loose (see the package comment above).
	vp.complex = nil
	vp.emit = func(vals []relation.Value) (bool, error) {
		spine.Matches++
		// Stopping the search is signaled as "found": runVec's boolean
		// result is meaningless in enumeration mode either way.
		return !yield(vals[:len(free)]), nil
	}
	exec := &PlanExec{Plan: vp.plan, ActRows: make([]int, len(vp.plan.Steps))}
	if _, err := ev.runVec(vp, exec, env); err != nil {
		return nil, err
	}
	spine.Executor = exec.Executor
	return spine, nil
}
