package query

import (
	"fmt"
	"strings"

	"prefcqa/internal/relation"
)

// Cost-based planning for existential quantifiers.
//
// An EXISTS whose body flattens into a conjunction with relational
// atoms covering every quantified variable is answered by embedding
// the atoms into the model's tuples: each satisfying assignment must
// match the atoms, so enumerating matching tuples enumerates exactly
// the candidate bindings — no |domain|^k iteration. This file turns
// that observation into a physical plan:
//
//   - Access-path selection. An atom argument whose value is known
//     when the atom runs (a constant, or a variable bound by the
//     environment or an earlier step) can be answered by an equality
//     probe of the relation's secondary index instead of a scan.
//   - Join ordering. Steps are ordered greedily by estimated
//     candidate rows — exact posting lengths for values known at
//     plan time, heuristic fractions of the relation cardinality
//     for values bound at run time — so selective atoms run first
//     and shrink the backtracking product.
//   - Residual placement. Comparisons run the moment their last
//     operand is bound; the other conjuncts that are not positive
//     relational atoms (negated atoms, disjunctions, nested
//     quantifiers) are evaluated once under the completed binding.
//
// One function, compileBlock, does all of it in one pass over the
// block's atoms and hands back the Plan EXPLAIN renders together with
// the vectorized atoms and the executor that run it (vector.go). Plans
// compile against the live environment, so estimates use the actual
// probe values; the scan re-picks the cheapest probe attribute per
// step invocation from the values bound at that moment. Evaluation
// results are identical to pure active-domain iteration (EvalNaive) —
// pinned by differential and property tests.

// AccessPath says how a plan step locates its candidate tuples.
type AccessPath int

const (
	// AccessScan iterates every visible tuple of the relation.
	AccessScan AccessPath = iota
	// AccessIndex probes a secondary index with an equality value.
	AccessIndex
)

// PlanStep is one atom of the join in execution order.
type PlanStep struct {
	Atom Atom
	// Access is the access path chosen at plan time. AccessIndex with
	// Attr >= 0 probes that attribute with a value known at plan
	// time; Attr < 0 defers the probe-attribute choice to run time
	// (the value comes from a variable bound by an earlier step).
	Access AccessPath
	Attr   int
	// AttrName is the schema name of Attr, for rendering.
	AttrName string
	// EstRows is the planner's estimate of candidate rows per
	// invocation: a posting length when the probe value is known, a
	// cardinality fraction otherwise.
	EstRows int
	// Binds lists the quantified variables first bound by this step.
	Binds []string
}

// Plan is the compiled physical plan of one existential quantifier.
type Plan struct {
	Vars     []string
	Steps    []PlanStep
	Residual []Expr
	// Unsat marks a plan proven empty at compile time: some atom
	// carries a value of the wrong domain (a name where the schema
	// says int, or vice versa), so no tuple can ever match. The
	// executor returns false without touching the model.
	Unsat bool
}

// Executor names, recorded per executed plan so ExplainPlan shows
// which runtime answered the quantifier.
const (
	// ExecGreedyVec is the vectorized nested-loop join in greedy
	// selectivity order: tuple-ID batches from index postings, flat
	// binding arrays, no per-row allocation.
	ExecGreedyVec = "vectorized-greedy"
	// ExecYannakakis is the semijoin-reduction executor for acyclic
	// multi-atom queries.
	ExecYannakakis = "yannakakis"
	// ExecWCOJ is the worst-case-optimal (generic) join for cyclic
	// multi-atom spines: one variable at a time, each candidate value
	// confirmed by intersecting sorted per-attribute postings across
	// every atom containing the variable.
	ExecWCOJ = "wcoj"
)

// BatchStat is the operator-level accounting of one plan step under a
// vectorized executor. Batches counts access-path invocations (probe
// batches, or reduction passes touching the atom under Yannakakis);
// IDs counts candidate tuple IDs inspected after visibility
// filtering; Out counts rows surviving the step's selections (greedy)
// or the full semijoin reduction (Yannakakis); Base is the
// Yannakakis base-candidate count before reduction, so Out/Base is
// the semijoin reduction ratio.
type BatchStat struct {
	Batches int
	IDs     int
	Base    int
	Out     int
}

// WcojVarStat is the per-variable accounting of one generic-join
// execution, in variable resolution order: Atoms is how many atoms
// constrain the variable, Values how many candidate values the seed
// atom proposed, Probes how many posting lookups the multiway
// intersection issued, and Matches how many values survived every
// intersection. Values >> Matches means the intersection is doing the
// pruning a binary join plan would have paid for with intermediate
// results.
type WcojVarStat struct {
	Var     string
	Atoms   int
	Values  int
	Probes  int
	Matches int
}

// PlanExec pairs a plan with its runtime row counts: ActRows[i] is
// the total number of candidate tuples step i's access path yielded,
// summed over every invocation (inner steps run once per outer
// binding). Counts reflect the executed portion only — an EXISTS
// short-circuits on its first satisfying binding, so actual rows can
// undershoot an accurate estimate. Executor records which runtime
// ran (empty for a plan proven Unsat at compile time, which runs
// nothing); Batch carries the per-step operator stats, GreedyCost the
// planner's nested-loop estimate and linearCost the base-candidates
// estimate of Yannakakis and the generic join it was compared with,
// and Wcoj the generic join's per-variable intersection stats
// (populated only when Executor is ExecWCOJ).
type PlanExec struct {
	Plan       *Plan
	ActRows    []int
	Executor   string
	Batch      []BatchStat
	GreedyCost int
	linearCost int
	Wcoj       []WcojVarStat
}

// Trace collects the executed plans of one evaluation, in the order
// the planner ran them, for EXPLAIN-style diagnostics.
type Trace struct {
	Execs []*PlanExec
}

// Describe renders the plan with actual row counts next to the
// estimates, the executor that ran it, and — for the vectorized
// executors — per-step batch stats and semijoin reduction ratios.
func (e *PlanExec) Describe() string { return e.Plan.describeExec(e.ActRows, e) }

func (p *Plan) describeExec(act []int, exec *PlanExec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXISTS %s", strings.Join(p.Vars, ", "))
	if p.Unsat {
		b.WriteString(" [unsatisfiable: kind mismatch]")
	}
	if exec != nil && exec.Executor != "" {
		fmt.Fprintf(&b, " [exec %s", exec.Executor)
		linear := ExecYannakakis // also what greedy is shown to have beaten
		if exec.Executor == ExecWCOJ {
			linear = ExecWCOJ
		}
		fmt.Fprintf(&b, "; cost %s %d vs greedy %d]", linear, exec.linearCost, exec.GreedyCost)
	}
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "\n  %d. %s  ", i+1, s.Atom)
		switch {
		case s.Access == AccessIndex && s.Attr >= 0:
			fmt.Fprintf(&b, "index(%s=%s)", s.AttrName, s.Atom.Args[s.Attr])
		case s.Access == AccessIndex:
			b.WriteString("index(runtime-bound)")
		default:
			b.WriteString("scan")
		}
		fmt.Fprintf(&b, "  est %d", s.EstRows)
		if act != nil {
			fmt.Fprintf(&b, " act %d", act[i])
		}
		if exec != nil && exec.Batch != nil && i < len(exec.Batch) {
			bs := exec.Batch[i]
			fmt.Fprintf(&b, "  [batches %d ids %d", bs.Batches, bs.IDs)
			switch exec.Executor {
			case ExecYannakakis:
				fmt.Fprintf(&b, " base %d semijoin→%d", bs.Base, bs.Out)
				if bs.Base > 0 {
					fmt.Fprintf(&b, " (%.0f%%)", 100*float64(bs.Out)/float64(bs.Base))
				}
			case ExecWCOJ:
				fmt.Fprintf(&b, " base %d", bs.Base)
			default:
				fmt.Fprintf(&b, " out %d", bs.Out)
			}
			b.WriteString("]")
		}
		if len(s.Binds) > 0 {
			fmt.Fprintf(&b, "  binds %s", strings.Join(s.Binds, ", "))
		}
	}
	if exec != nil {
		for _, ws := range exec.Wcoj {
			fmt.Fprintf(&b, "\n  wcoj %s: atoms %d values %d probes %d matches %d",
				ws.Var, ws.Atoms, ws.Values, ws.Probes, ws.Matches)
		}
	}
	for _, r := range p.Residual {
		fmt.Fprintf(&b, "\n  residual: %s", r)
	}
	return b.String()
}

// compileBlock compiles a covered block in one pass: the physical plan
// EXPLAIN renders and the vectorized atoms the executors run both come
// out of it, so they cannot disagree about an access path or a number.
//
// Each atom is resolved against its backing once — relation, arity,
// columns, and per argument either the slot of the block variable or
// the value known now (a constant, or a binding of env) with its exact
// posting length. A known value of the wrong domain (a name where the
// schema says int, or vice versa) proves the conjunction empty:
// Plan.Unsat, nothing else compiled. The atoms are then ordered
// greedily on those numbers, each step fixing which variables it binds
// and which of its positions have a value in hand when it runs; the
// comparison residuals are scheduled on that order and the executor is
// chosen (chooseExecutor).
func (ev *evaluator) compileBlock(b block, env map[string]relation.Value) (*vecPlan, error) {
	plan := &Plan{Vars: b.vars, Residual: b.residual}
	v := &vecPlan{ev: ev, plan: plan, vars: b.vars}
	varIdx := make(map[string]int, len(b.vars))
	for i, name := range b.vars {
		varIdx[name] = i
	}
	// operand resolves a term to the slot of a block variable — which
	// shadows any outer binding of the name — or to a value known now.
	operand := func(t Term) (vecOperand, bool) {
		switch x := t.(type) {
		case Const:
			return vecOperand{varIdx: -1, val: x.Value}, true
		case Var:
			if vi, quantified := varIdx[x.Name]; quantified {
				return vecOperand{varIdx: vi}, true
			}
			if val, bound := env[x.Name]; bound {
				return vecOperand{varIdx: -1, val: val}, true
			}
		}
		return vecOperand{}, false
	}

	atoms := make([]vecAtom, len(b.atoms))
	steps := make([]PlanStep, len(b.atoms)) // until ordered: the compile-known access path
	for ai, atom := range b.atoms {
		inst, visible, ok := ev.m.Backing(atom.Rel)
		if !ok {
			return nil, errUnknownRelation(atom.Rel)
		}
		schema := inst.Schema()
		if len(atom.Args) != schema.Arity() {
			return nil, errArity(atom.Rel, schema.Arity(), len(atom.Args))
		}
		card := inst.Len()
		if visible != nil {
			card = visible.Len()
		}
		a, step := &atoms[ai], &steps[ai]
		*a = vecAtom{rel: atom.Rel, inst: inst, visible: visible, n: inst.NumIDs(),
			cols: make([]relation.Col, len(atom.Args)), card: card, estBase: card}
		*step = PlanStep{Atom: atom, Access: AccessScan, Attr: -1, EstRows: card}
		for i, t := range atom.Args {
			a.cols[i] = inst.Col(i)
			o, ok := operand(t)
			if !ok {
				// Internal: a closed formula binds every variable that is
				// not quantified here before the quantifier is reached.
				return nil, errUnbound(t.String())
			}
			if o.varIdx >= 0 {
				a.ops = append(a.ops, vecOp{pos: i, varIdx: o.varIdx})
				if fp := a.posOf(o.varIdx); fp >= 0 {
					a.intraEq = append(a.intraEq, [2]int{i, fp})
					continue
				}
				a.vars, a.varPos = append(a.vars, o.varIdx), append(a.varPos, i)
				continue
			}
			if o.val.Kind() != schema.Attr(i).Kind {
				plan.Unsat = true
				plan.Steps = []PlanStep{{Atom: atom, Access: AccessScan, Attr: -1}}
				return v, nil
			}
			est := inst.IndexEstimate(i, o.val)
			if step.Access != AccessIndex || est < step.EstRows {
				step.Access, step.Attr, step.AttrName, step.EstRows = AccessIndex, i, schema.Attr(i).Name, est
			}
			a.estBase = min(a.estBase, est)
			a.sel = append(a.sel, vecProbe{pos: i, vecOperand: o})
		}
	}

	// Greedy order: repeatedly the atom with the fewest estimated
	// candidates, ties to source order. An atom with no compile-known
	// value probes at run time once an earlier step binds one of its
	// variables; the distinct-value count of the probe attribute turns
	// the guess into card/distinct — the average posting length — which
	// is what the linear-vs-greedy cost choice needs to be sharp about.
	boundAt := make([]int, len(b.vars)) // block variable → the step binding it
	for i := range boundAt {
		boundAt[i] = -1
	}
	for si := range atoms {
		best := si
		var bestStep PlanStep
		for k := si; k < len(atoms); k++ {
			step, a := steps[k], &atoms[k]
			if step.Access == AccessScan {
				est := a.card/2 + 1
				for _, op := range a.ops {
					if boundAt[op.varIdx] < 0 {
						continue
					}
					step.Access = AccessIndex
					if d := a.inst.DistinctEstimate(op.pos); d > 0 {
						est = min(est, a.card/d+1)
					}
				}
				if step.Access == AccessIndex {
					step.EstRows = min(step.EstRows, est)
				}
			}
			if k == si || step.EstRows < bestStep.EstRows {
				best, bestStep = k, step
			}
		}
		// Move the winner to position si; the others keep source order.
		a := atoms[best]
		copy(atoms[si+1:best+1], atoms[si:best])
		copy(steps[si+1:best+1], steps[si:best])
		// The step's probes, in argument order: the compile-known
		// selections — alone, the slice is shared — and the first position
		// of every variable an earlier step binds.
		var merged []vecProbe
		rest := a.sel
		for k, vi := range a.vars {
			if boundAt[vi] < 0 {
				continue
			}
			for len(rest) > 0 && rest[0].pos < a.varPos[k] {
				merged, rest = append(merged, rest[0]), rest[1:]
			}
			merged = append(merged, vecProbe{pos: a.varPos[k], vecOperand: vecOperand{varIdx: vi}})
		}
		a.probes = a.sel
		if merged != nil {
			a.probes = append(merged, rest...)
		}
		for k := range a.ops {
			if op := &a.ops[k]; boundAt[op.varIdx] < 0 {
				boundAt[op.varIdx], op.bind = si, true
				bestStep.Binds = append(bestStep.Binds, b.vars[op.varIdx])
			}
		}
		atoms[si], steps[si] = a, bestStep
	}
	v.atoms, plan.Steps = atoms, steps

	// Residuals: a comparison over known values and block variables is
	// checked from the flat bindings the moment its last operand is bound
	// (folded now when it has no variable at all); anything else — and a
	// comparison naming an unbound outer variable, whose evaluation
	// reports it — waits for the tree-walking evaluator in finish.
	v.cmpsAt = make([][]vecCmp, len(v.atoms))
	var cross []vecCmp
	for _, r := range b.residual {
		c, ok := r.(Cmp)
		vc := vecCmp{op: c.Op}
		if ok {
			vc.l, ok = operand(c.L)
		}
		if ok {
			vc.r, ok = operand(c.R)
		}
		switch {
		case !ok:
			v.complex = append(v.complex, r)
		case vc.l.varIdx < 0 && vc.r.varIdx < 0:
			v.constFalse = v.constFalse || !vc.holds(nil)
		default:
			at := vc.lastLevel(boundAt)
			v.cmpsAt[at] = append(v.cmpsAt[at], vc)
			cross = append(cross, vc)
		}
	}
	v.chooseExecutor(cross)
	return v, nil
}

// Error helpers shared with the naive evaluator.

func errUnknownRelation(rel string) error {
	return fmt.Errorf("query: unknown relation %q", rel)
}

func errArity(rel string, want, got int) error {
	return fmt.Errorf("query: %s expects %d arguments, got %d", rel, want, got)
}

func errUnbound(name string) error {
	return fmt.Errorf("query: unbound variable %s", name)
}
