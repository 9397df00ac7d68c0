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
//   - Residual placement. Conjuncts that are not positive relational
//     atoms (comparisons, negated atoms, disjunctions, nested
//     quantifiers) are evaluated once under the completed binding.
//
// Plans compile against the live environment, so estimates use the
// actual probe values; the executor re-picks the cheapest probe
// attribute per step invocation from the values bound at that moment.
// Evaluation results are identical to pure active-domain iteration
// (EvalNaive) — pinned by differential and property tests.

// AccessPath says how a plan step locates its candidate tuples.
type AccessPath int

const (
	// AccessScan iterates every visible tuple of the relation.
	AccessScan AccessPath = iota
	// AccessIndex probes a secondary index with an equality value.
	AccessIndex
)

// String renders "scan" or "index".
func (a AccessPath) String() string {
	if a == AccessIndex {
		return "index"
	}
	return "scan"
}

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
// nothing); Batch carries the per-step operator stats, and
// YanCost/GreedyCost the planner's cost estimates behind the executor
// choice.
type PlanExec struct {
	Plan       *Plan
	ActRows    []int
	Executor   string
	Batch      []BatchStat
	YanCost    int
	GreedyCost int
	// WcojCost is the generic join's cost estimate (base candidates,
	// like YanCost) and Wcoj its per-variable intersection stats — both
	// populated only when Executor is ExecWCOJ.
	WcojCost int
	Wcoj     []WcojVarStat
}

// Trace collects the executed plans of one evaluation, in the order
// the planner ran them, for EXPLAIN-style diagnostics.
type Trace struct {
	Execs []*PlanExec
}

// String renders the plan, one step per line.
func (p *Plan) String() string { return p.describe(nil) }

// Describe renders the plan with actual row counts next to the
// estimates, the executor that ran it, and — for the vectorized
// executors — per-step batch stats and semijoin reduction ratios.
func (e *PlanExec) Describe() string { return e.Plan.describeExec(e.ActRows, e) }

func (p *Plan) describe(act []int) string { return p.describeExec(act, nil) }

func (p *Plan) describeExec(act []int, exec *PlanExec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXISTS %s", strings.Join(p.Vars, ", "))
	if p.Unsat {
		b.WriteString(" [unsatisfiable: kind mismatch]")
	}
	if exec != nil && exec.Executor != "" {
		fmt.Fprintf(&b, " [exec %s", exec.Executor)
		switch exec.Executor {
		case ExecGreedyVec, ExecYannakakis:
			fmt.Fprintf(&b, "; cost yannakakis %d vs greedy %d", exec.YanCost, exec.GreedyCost)
		case ExecWCOJ:
			fmt.Fprintf(&b, "; cost wcoj %d vs greedy %d", exec.WcojCost, exec.GreedyCost)
		}
		b.WriteString("]")
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

// flattenAnd returns the conjuncts of an And-tree.
func flattenAnd(e Expr) []Expr {
	if a, ok := e.(And); ok {
		return append(flattenAnd(a.L), flattenAnd(a.R)...)
	}
	return []Expr{e}
}

// block is the analysed shape of one quantifier, read as an existential
// block: the one place that knows the ∀ ⇒ ¬∃¬ rewrite, what the
// conjuncts of the body are and whether the planner can answer the
// block. The evaluator, Prepared, the support analysis and the open
// enumeration all read it, so none of them can disagree with another
// about the same quantifier.
type block struct {
	// neg marks a universal, rewritten ∀x̄.φ ≡ ¬∃x̄.¬φ (which the planner
	// can often handle, e.g. guarded universals NOT R(x̄) OR ψ): vars and
	// body describe the existential, whose verdict is to be negated.
	neg  bool
	vars []string
	body Expr
	// atoms are the positive relational atoms among the top-level
	// conjuncts of body; residual is every other conjunct (comparisons —
	// the equalities peelEqualities reads among them — negated atoms,
	// disjunctions, nested quantifiers), in order.
	atoms    []Atom
	residual []Expr
	// covered is the coverage rule: at least one positive atom conjunct,
	// every quantified variable occurring in one. Enumerating the atoms'
	// matches then enumerates every candidate binding; a block that is
	// not covered needs its variables equated to a value or the active
	// domain iterated.
	covered bool
}

func analyzeBlock(q Quant) block {
	b := block{neg: q.All, vars: q.Vars, body: q.Body}
	if q.All {
		b.body = Negate(q.Body)
	}
	for _, c := range flattenAnd(b.body) {
		if a, ok := c.(Atom); ok {
			b.atoms = append(b.atoms, a)
		} else {
			b.residual = append(b.residual, c)
		}
	}
	b.covered = len(b.atoms) > 0
	for _, v := range b.vars {
		b.covered = b.covered && occursIn(b.atoms, v)
	}
	return b
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

// compileExists builds the physical plan of a covered block.
func (ev *evaluator) compileExists(b block, env map[string]relation.Value) (*Plan, error) {
	quantified := make(map[string]bool, len(b.vars))
	for _, v := range b.vars {
		quantified[v] = true
	}
	plan := &Plan{Vars: b.vars, Residual: b.residual}
	for _, a := range b.atoms {
		schema, ok := ev.m.Schema(a.Rel)
		if !ok {
			return nil, errUnknownRelation(a.Rel)
		}
		if len(a.Args) != schema.Arity() {
			return nil, errArity(a.Rel, schema.Arity(), len(a.Args))
		}
		// A value of the wrong domain — a constant, or an outer
		// binding of a non-quantified variable — proves the whole
		// conjunction empty at compile time.
		for i, t := range a.Args {
			var val relation.Value
			switch x := t.(type) {
			case Const:
				val = x.Value
			case Var:
				if quantified[x.Name] {
					continue
				}
				v, ok := env[x.Name]
				if !ok {
					continue
				}
				val = v
			default:
				continue
			}
			if val.Kind() != schema.Attr(i).Kind {
				plan.Unsat = true
				plan.Steps = append(plan.Steps, PlanStep{Atom: a, Access: AccessScan, Attr: -1})
				return plan, nil
			}
		}
	}
	bound := make(map[string]bool) // quantified vars bound by chosen steps
	remaining := b.atoms
	for len(remaining) > 0 {
		best := 0
		var bestStep PlanStep
		for i, a := range remaining {
			step := ev.estimateStep(a, env, quantified, bound)
			if i == 0 || step.EstRows < bestStep.EstRows {
				best, bestStep = i, step
			}
		}
		for _, t := range bestStep.Atom.Args {
			if v, isVar := t.(Var); isVar && quantified[v.Name] && !bound[v.Name] {
				bound[v.Name] = true
				bestStep.Binds = append(bestStep.Binds, v.Name)
			}
		}
		plan.Steps = append(plan.Steps, bestStep)
		remaining = append(remaining[:best:best], remaining[best+1:]...)
	}
	return plan, nil
}

// estimateStep picks an access path and row estimate for one atom
// given the variables bound so far. Values known at plan time
// (constants and environment bindings) yield exact posting-length
// estimates; variables bound by earlier steps probe at run time and
// get the average posting length of their attribute; anything else
// scans. The caller has checked that the relation exists.
func (ev *evaluator) estimateStep(a Atom, env map[string]relation.Value, quantified, bound map[string]bool) PlanStep {
	inst, _, _ := ev.m.Backing(a.Rel)
	card := ev.m.Card(a.Rel)
	step := PlanStep{Atom: a, Access: AccessScan, Attr: -1, EstRows: card}
	var runtimePos []int
	for i, t := range a.Args {
		var val relation.Value
		known := false
		switch x := t.(type) {
		case Const:
			val, known = x.Value, true
		case Var:
			// A quantified variable shadows any outer env binding:
			// its value is only known once an earlier step binds it.
			if quantified[x.Name] {
				if bound[x.Name] {
					runtimePos = append(runtimePos, i)
				}
			} else if v, ok := env[x.Name]; ok {
				val, known = v, true
			}
		}
		if !known {
			continue
		}
		// Kind-mismatched known values were rejected at compile time
		// (Plan.Unsat), so val matches the attribute's domain here.
		if est := inst.IndexEstimate(i, val); step.Access != AccessIndex || est < step.EstRows {
			step.Access, step.Attr, step.AttrName, step.EstRows = AccessIndex, i, inst.Schema().Attr(i).Name, est
		}
	}
	if step.Access == AccessScan && len(runtimePos) > 0 {
		// The probe value arrives when an earlier step binds the
		// variable; the executor picks the attribute then. The
		// distinct-value count of the probe attribute turns the guess
		// into card/distinct — the average posting length — which is
		// what the Yannakakis-vs-greedy cost choice needs to be sharp
		// about.
		step.Access = AccessIndex
		est := card/2 + 1
		for _, i := range runtimePos {
			if d := inst.DistinctEstimate(i); d > 0 {
				if e := card/d + 1; e < est {
					est = e
				}
			}
		}
		if est < step.EstRows {
			step.EstRows = est
		}
	}
	return step
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
