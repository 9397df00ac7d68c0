package prefcqa

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"prefcqa/internal/core"
	"prefcqa/internal/query"
)

// TupleReport explains one tuple's inconsistency status: its
// conflicts (labelled with the violated dependency), its position in
// the preference order, and its membership across the family's
// preferred repairs.
type TupleReport struct {
	ID    TupleID
	Tuple Tuple
	// Conflicts lists the conflicting tuples and the dependency each
	// conflict violates (rendered "X -> Y").
	Conflicts []ConflictInfo
	// DominatedBy and Dominates list the recorded preference edges
	// touching the tuple.
	DominatedBy []TupleID
	Dominates   []TupleID
	// InAll / InSome report membership over the preferred repairs of
	// the family the report was built for: certainly kept, possibly
	// kept, or (if both are false) never kept.
	InAll  bool
	InSome bool
}

// ConflictInfo is one conflict edge incident to the reported tuple.
type ConflictInfo struct {
	With TupleID
	FD   string
}

// Status summarizes the report: "clean" (no conflicts), "kept"
// (in every preferred repair), "disputed" (in some), or "rejected"
// (in none).
func (r TupleReport) Status() string {
	switch {
	case len(r.Conflicts) == 0:
		return "clean"
	case r.InAll:
		return "kept"
	case r.InSome:
		return "disputed"
	default:
		return "rejected"
	}
}

// ExplainTuple builds a TupleReport for one tuple of a relation under
// the given family.
func (db *DB) ExplainTuple(f Family, rel string, id TupleID) (TupleReport, error) {
	built, err := db.built(rel)
	if err != nil {
		return TupleReport{}, err
	}
	if !built.Inst.Live(id) {
		return TupleReport{}, fmt.Errorf("prefcqa: relation %s has no tuple %d", rel, id)
	}
	g := built.Pri.Graph()
	rep := TupleReport{ID: id, Tuple: built.Inst.Tuple(id)}
	for _, e := range g.Edges() {
		var other TupleID
		switch id {
		case e.A:
			other = e.B
		case e.B:
			other = e.A
		default:
			continue
		}
		rep.Conflicts = append(rep.Conflicts, ConflictInfo{With: other, FD: built.FDs.FD(e.FD).String()})
	}
	for _, d := range built.Pri.Dominators(id) {
		rep.DominatedBy = append(rep.DominatedBy, TupleID(d))
	}
	for _, d := range built.Pri.Dominated(id) {
		rep.Dominates = append(rep.Dominates, TupleID(d))
	}
	sort.Slice(rep.Conflicts, func(i, j int) bool { return rep.Conflicts[i].With < rep.Conflicts[j].With })

	// Membership across the preferred repairs: only the component
	// containing the tuple matters.
	choices := core.ChoicesForComponent(f, built.Pri, g.Component(g.ComponentOf(id)))
	if len(choices.Local) == 0 {
		return TupleReport{}, fmt.Errorf("prefcqa: no preferred choice for tuple %d's component", id)
	}
	rep.InAll = true
	for k := range choices.Local {
		if choices.Keeps(k, id) {
			rep.InSome = true
		} else {
			rep.InAll = false
		}
	}
	return rep, nil
}

// PlanReport explains how the query planner evaluates a closed
// query: the physical plan of every existential quantifier the
// planner compiled — access path per atom (secondary-index probe vs
// scan), join order, executor, and estimated vs actual candidate rows
// — from one evaluation against the full current instance of every
// relation (all tuples visible, tombstones excluded). Per-repair
// evaluations during Query compile the same plan shape with repair
// subsets filtered on top of the index candidates, so a regression
// visible here (an unexpected scan, an estimate far off the actual
// rows) is the same regression Query pays once per repair.
type PlanReport struct {
	// Query is the parsed query, printed back.
	Query string
	// Holds is the query's value on the full (possibly inconsistent)
	// instance — not the preferred-repair answer; use Query for that.
	Holds bool
	// Plans holds one rendered physical plan per EXISTS the planner
	// executed, in execution order. Quantifiers that fell back to
	// active-domain iteration (no positive atoms, or a variable
	// occurring only in residual conjuncts) produce no plan.
	Plans []string
}

// String renders the report.
func (r PlanReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", r.Query)
	fmt.Fprintf(&b, "holds on full instance: %v\n", r.Holds)
	if len(r.Plans) == 0 {
		b.WriteString("no planned quantifiers (ground query or domain-iteration fallback)")
		return b.String()
	}
	for i, p := range r.Plans {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "plan %d: %s", i+1, p)
	}
	return b.String()
}

// ExplainPlan compiles and runs the closed query once against the
// full current instance of every relation and reports the physical
// plans the planner chose. It is the diagnosis companion of Query:
// the answer reported here is the raw-instance value, not the
// preferred-repair answer. Snapshot.ExplainPlan is the same report
// against pinned versions.
func (db *DB) ExplainPlan(src string) (PlanReport, error) {
	s, err := db.Snapshot()
	if err != nil {
		return PlanReport{}, err
	}
	return s.ExplainPlan(src)
}

// ExplainPlan compiles and runs the closed query once against the
// pinned full instances and reports the physical plans the planner
// chose.
func (s *Snapshot) ExplainPlan(src string) (PlanReport, error) {
	return s.ExplainPlanContext(context.Background(), src)
}

// ExplainPlanContext is ExplainPlan with cancellation: once ctx is
// cancelled the traced evaluation aborts with ctx.Err(), checked
// periodically as candidate rows are iterated.
func (s *Snapshot) ExplainPlanContext(ctx context.Context, src string) (PlanReport, error) {
	in, a, err := s.analyzed(ctx, src)
	if err != nil {
		return PlanReport{}, err
	}
	if len(a.Free) > 0 {
		return PlanReport{}, fmt.Errorf("prefcqa: ExplainPlan needs a closed query, free variables %v", a.Free)
	}
	holds, trace, err := query.EvalTraceCtx(in.Ctx, a.Expr, query.DBModel{DB: in.DB})
	if err != nil {
		return PlanReport{}, err
	}
	rep := PlanReport{Query: a.Expr.String(), Holds: holds}
	for _, e := range trace.Execs {
		rep.Plans = append(rep.Plans, e.Describe())
	}
	return rep, nil
}

// String renders the report compactly.
func (r TupleReport) String() string {
	s := fmt.Sprintf("t%d %s: %s", r.ID, r.Tuple, r.Status())
	for _, c := range r.Conflicts {
		s += fmt.Sprintf("\n  conflicts with t%d (%s)", c.With, c.FD)
	}
	if len(r.DominatedBy) > 0 {
		s += fmt.Sprintf("\n  dominated by %v", r.DominatedBy)
	}
	if len(r.Dominates) > 0 {
		s += fmt.Sprintf("\n  dominates %v", r.Dominates)
	}
	return s
}
