// Package cqa computes preferred consistent query answers
// (Definition 3): true is the X-consistent answer to a closed query Q
// iff Q holds in every preferred repair of the family X. Evaluation
// treats repairs as views, enumerates preferred repairs with early
// exit, prunes to the components a ground query actually touches, and
// implements the polynomial-time ground quantifier-free algorithm for
// the plain Rep family (first row of Fig. 5, after Chomicki &
// Marcinkowski [6]).
//
// Per-component repair choices come from a core.Engine (Input.Engine;
// sequential by default): both the ground pruned path and the
// quantified full-enumeration path consume the engine's sharded,
// optionally memoized per-component results, so repeated evaluation
// against the same instance skips recomputation.
package cqa

import (
	"context"
	"fmt"
	"sort"

	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
	"prefcqa/internal/core"
	"prefcqa/internal/fd"
	"prefcqa/internal/priority"
	"prefcqa/internal/query"
	"prefcqa/internal/relation"
	"prefcqa/internal/repair"
)

// Relation bundles one relation's inconsistency context: the
// instance, its dependencies, the conflict graph, and the priority.
type Relation struct {
	Inst *relation.Instance
	FDs  *fd.Set
	Pri  *priority.Priority
}

// NewRelation builds the conflict graph of inst w.r.t. fds and wraps
// it with an empty priority.
func NewRelation(inst *relation.Instance, fds *fd.Set) (*Relation, error) {
	g, err := conflict.Build(inst, fds)
	if err != nil {
		return nil, err
	}
	return &Relation{Inst: inst, FDs: fds, Pri: priority.New(g)}, nil
}

// Input is the full CQA input: one entry per relation plus the
// database the query is evaluated against. Single-relation problems
// use a one-entry input.
type Input struct {
	DB   *relation.Database
	Rels []*Relation
	// Engine evaluates the per-component repair choices. Nil selects
	// the sequential reference engine; set it (or use WithEngine) to
	// shard components across workers and memoize choice sets.
	Engine *core.Engine
	// Ctx, when non-nil, cancels evaluation: the engine checks it per
	// conflict-graph component and the repair walks check it per
	// enumerated combination, so a server deadline aborts a long
	// evaluation with ctx.Err() instead of running to completion.
	Ctx context.Context
	// Stats, when non-nil, receives open-query path and spine-executor
	// counters (see EvalStats). Shared across inputs by the facade.
	Stats *EvalStats
}

// WithEngine returns a copy of the input evaluating on the given
// engine.
func (in Input) WithEngine(e *core.Engine) Input {
	in.Engine = e
	return in
}

// WithContext returns a copy of the input whose evaluation is
// cancelled when ctx is — the plumbing behind per-request deadlines
// in the serving layer.
func (in Input) WithContext(ctx context.Context) Input {
	in.Ctx = ctx
	return in
}

// WithStats returns a copy of the input recording open-query path
// counters into s.
func (in Input) WithStats(s *EvalStats) Input {
	in.Stats = s
	return in
}

// ctx resolves the cancellation context, defaulting to Background.
func (in Input) ctx() context.Context {
	if in.Ctx != nil {
		return in.Ctx
	}
	return context.Background()
}

// engine resolves the evaluation engine, defaulting to the sequential
// reference engine.
func (in Input) engine() *core.Engine {
	if in.Engine != nil {
		return in.Engine
	}
	return core.Sequential()
}

// NewInput assembles an Input (and the underlying Database) from
// per-relation contexts.
func NewInput(rels ...*Relation) (Input, error) {
	db := relation.NewDatabase()
	for _, r := range rels {
		if err := db.AddInstance(r.Inst); err != nil {
			return Input{}, err
		}
	}
	return Input{DB: db, Rels: rels}, nil
}

// Answer is the three-valued outcome of evaluating a closed query
// over a family of preferred repairs.
type Answer int

const (
	// CertainlyTrue: the query holds in every preferred repair —
	// "true is the X-consistent query answer".
	CertainlyTrue Answer = iota
	// CertainlyFalse: the query fails in every preferred repair —
	// "false is the X-consistent query answer".
	CertainlyFalse
	// Undetermined: the query holds in some preferred repairs and
	// fails in others.
	Undetermined
)

// String renders "true", "false" or "undetermined".
func (a Answer) String() string {
	switch a {
	case CertainlyTrue:
		return "true"
	case CertainlyFalse:
		return "false"
	case Undetermined:
		return "undetermined"
	default:
		return fmt.Sprintf("answer(%d)", int(a))
	}
}

// schemas returns the schema map for validation.
func (in Input) schemas() map[string]*relation.Schema {
	m := make(map[string]*relation.Schema, len(in.Rels))
	for _, r := range in.Rels {
		m[r.Inst.Schema().Name()] = r.Inst.Schema()
	}
	return m
}

// model builds the evaluation view for one preferred repair
// combination (one tuple subset per relation; nil = the whole
// database).
func (in Input) model(subsets map[string]*bitset.Set) query.Model {
	return query.DBModel{DB: in.DB, Subsets: subsets}
}

// forEachPreferredRepair enumerates the preferred repairs of the
// whole database — the product of per-relation preferred repairs —
// and calls visit with one subset per relation. visit returns false
// to stop. Per-relation repairs come from the input's engine, so the
// inner re-enumerations hit the engine's choice-set cache when
// memoization is on. A non-nil error is the input context's
// cancellation (an early visit stop is not an error).
func (in Input) forEachPreferredRepair(f core.Family, visit func(map[string]*bitset.Set) bool) error {
	ctx := in.ctx()
	eng := in.engine()
	subsets := make(map[string]*bitset.Set, len(in.Rels))
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == len(in.Rels) {
			return visit(subsets), nil
		}
		r := in.Rels[i]
		name := r.Inst.Schema().Name()
		cont := true
		var inner error
		err := eng.EnumerateCtx(ctx, f, r.Pri, func(s *bitset.Set) bool {
			subsets[name] = s
			cont, inner = rec(i + 1)
			return cont && inner == nil
		})
		if inner != nil {
			return false, inner
		}
		if err != nil && err != repair.ErrStopped {
			return false, err // context cancellation
		}
		return cont, nil
	}
	_, err := rec(0)
	return err
}

// Certain reports whether true is the X-consistent answer to the
// closed query q: q must hold in every preferred repair of family f.
func Certain(f core.Family, in Input, q query.Expr) (bool, error) {
	a, err := Evaluate(f, in, q)
	if err != nil {
		return false, err
	}
	return a == CertainlyTrue, nil
}

// Possible reports whether q holds in at least one preferred repair
// of family f — the "brave" companion of Certain (presence of an atom
// in some repair is the Σ₂ᵖ-flavored problem §5 compares prioritized
// logic programming against). Possible(q) = ¬Certain(¬q).
func Possible(f core.Family, in Input, q query.Expr) (bool, error) {
	a, err := Evaluate(f, in, q)
	if err != nil {
		return false, err
	}
	return a != CertainlyFalse, nil
}

// Evaluate computes the three-valued answer to the closed query q
// over family f, stopping as soon as both a satisfying and a
// falsifying preferred repair have been seen. Ground queries are
// pruned to the conflict-graph components they touch.
func Evaluate(f core.Family, in Input, q query.Expr) (Answer, error) {
	if err := query.Validate(q, in.schemas()); err != nil {
		return 0, err
	}
	if !query.IsClosed(q) {
		return 0, fmt.Errorf("cqa: query has free variables %v; use FreeAnswers", query.FreeVars(q))
	}
	return evaluateClosed(f, in, q)
}

// EvaluateFull is Evaluate with the ground-query component pruning
// disabled: every preferred repair of the whole database is
// enumerated. Exposed for the pruning-ablation benchmarks; prefer
// Evaluate.
func EvaluateFull(f core.Family, in Input, q query.Expr) (Answer, error) {
	if err := query.Validate(q, in.schemas()); err != nil {
		return 0, err
	}
	if !query.IsClosed(q) {
		return 0, fmt.Errorf("cqa: query has free variables %v; use FreeAnswers", query.FreeVars(q))
	}
	return evaluateFull(f, in, q)
}

// evaluateClosed dispatches evaluation of an already-validated closed
// query. Kind-mismatched constants inside atoms (which arise when
// open queries are instantiated over the mixed active domain) simply
// make the atom false. Ground queries take the ground pruned walk;
// quantified queries take the quantified pruned walk when the support
// analysis proves it sound (no quantifier falls back to active-domain
// iteration); everything else enumerates the full repair product.
func evaluateClosed(f core.Family, in Input, q query.Expr) (Answer, error) {
	if err := in.ctx().Err(); err != nil {
		return 0, err
	}
	if query.IsGround(q) {
		return evaluateGroundPruned(f, in, q)
	}
	if ans, handled, err := evaluateQuantPruned(f, in, q); handled {
		return ans, err
	}
	return evaluateFull(f, in, q)
}

func evaluateFull(f core.Family, in Input, q query.Expr) (Answer, error) {
	in.Stats.noteClosed(false)
	seenTrue, seenFalse := false, false
	var evalErr error
	walkErr := in.forEachPreferredRepair(f, func(subsets map[string]*bitset.Set) bool {
		holds, err := query.EvalCtx(in.Ctx, q, in.model(subsets))
		if err != nil {
			evalErr = err
			return false
		}
		if holds {
			seenTrue = true
		} else {
			seenFalse = true
		}
		return !(seenTrue && seenFalse)
	})
	if evalErr != nil {
		return 0, evalErr
	}
	if walkErr != nil {
		return 0, walkErr
	}
	return verdict(seenTrue, seenFalse)
}

func verdict(seenTrue, seenFalse bool) (Answer, error) {
	switch {
	case seenTrue && !seenFalse:
		return CertainlyTrue, nil
	case seenFalse && !seenTrue:
		return CertainlyFalse, nil
	case seenTrue && seenFalse:
		return Undetermined, nil
	default:
		return 0, fmt.Errorf("cqa: no preferred repairs enumerated (P1 violated?)")
	}
}

// evaluateGroundPruned exploits that a ground query's truth in a
// repair depends only on the membership of the tuples its atoms
// mention. Only the conflict-graph components containing those
// tuples vary the answer; all other components are fixed to an
// arbitrary preferred choice (every family is componentwise
// non-empty). The enumeration is then exponential only in the
// touched components.
func evaluateGroundPruned(f core.Family, in Input, q query.Expr) (Answer, error) {
	in.Stats.noteClosed(true)
	// Identify the touched tuple IDs per relation. The query mentions
	// O(|Q|) tuples, so the touched sets are small slices, not
	// instance-sized bitsets.
	touched := make(map[string][]relation.TupleID)
	for _, a := range query.Atoms(q) {
		tup := make(relation.Tuple, len(a.Args))
		for i, t := range a.Args {
			c, ok := t.(query.Const)
			if !ok {
				return 0, fmt.Errorf("cqa: internal: non-ground atom %s", a)
			}
			tup[i] = c.Value
		}
		for _, r := range in.Rels {
			name := r.Inst.Schema().Name()
			if name != a.Rel {
				continue
			}
			if len(tup) != r.Inst.Schema().Arity() {
				return 0, fmt.Errorf("cqa: %s arity mismatch", a.Rel)
			}
			ok := true
			for i, v := range tup {
				if v.Kind() != r.Inst.Schema().Attr(i).Kind {
					ok = false
					break
				}
			}
			if !ok {
				continue // wrong kinds: tuple cannot exist
			}
			if id, found := r.Inst.Lookup(tup); found {
				touched[name] = append(touched[name], id)
			}
		}
	}
	// Per relation, collect the choices of the touched components
	// only — located directly via the graph's component index. The
	// engine shards the touched components across its workers and
	// serves repeated structures from its cache.
	eng := in.engine()
	type relChoices struct {
		name    string
		choices [][]*bitset.Set
	}
	var work []relChoices
	for _, r := range in.Rels {
		name := r.Inst.Schema().Name()
		tch := touched[name]
		if len(tch) == 0 {
			continue
		}
		g := r.Pri.Graph()
		compIDs := make([]int, 0, len(tch))
		for _, id := range tch {
			compIDs = append(compIDs, g.ComponentOf(id))
		}
		sort.Ints(compIDs)
		var comps [][]int
		for i, cid := range compIDs {
			if i > 0 && cid == compIDs[i-1] {
				continue
			}
			comps = append(comps, g.Component(cid))
		}
		lists, err := eng.ChoicesForCtx(in.ctx(), f, r.Pri, comps)
		if err != nil {
			return 0, err
		}
		for _, cs := range lists {
			if len(cs) == 0 {
				return 0, fmt.Errorf("cqa: component with no preferred choice (P1 violated?)")
			}
		}
		work = append(work, relChoices{name: name, choices: lists})
	}
	// Enumerate combinations of touched-component choices; evaluate on
	// the union per relation (untouched components are invisible —
	// the ground query never consults them).
	seenTrue, seenFalse := false, false
	ctx := in.ctx()
	var evalErr error
	subsets := make(map[string]*bitset.Set, len(work))
	var rec func(wi, ci int) bool
	rec = func(wi, ci int) bool {
		if wi == len(work) {
			if err := ctx.Err(); err != nil {
				evalErr = err
				return false
			}
			holds, err := query.EvalCtx(in.Ctx, q, in.model(subsets))
			if err != nil {
				evalErr = err
				return false
			}
			if holds {
				seenTrue = true
			} else {
				seenFalse = true
			}
			return !(seenTrue && seenFalse)
		}
		w := work[wi]
		if ci == len(w.choices) {
			return rec(wi+1, 0)
		}
		for _, choice := range w.choices[ci] {
			prev := subsets[w.name]
			if prev == nil {
				subsets[w.name] = choice.Clone()
			} else {
				subsets[w.name] = bitset.Union(prev, choice)
			}
			if !rec(wi, ci+1) {
				return false
			}
			subsets[w.name] = prev
		}
		return true
	}
	rec(0, 0)
	if evalErr != nil {
		return 0, evalErr
	}
	if !seenTrue && !seenFalse {
		// No touched components anywhere: every atom references an
		// absent tuple, so the answer is fixed and visibility is
		// irrelevant. Evaluate once.
		holds, err := query.EvalCtx(in.Ctx, q, in.model(map[string]*bitset.Set{}))
		if err != nil {
			return 0, err
		}
		if holds {
			return CertainlyTrue, nil
		}
		return CertainlyFalse, nil
	}
	return verdict(seenTrue, seenFalse)
}

// evaluateQuantPruned extends the ground pruning to quantified closed
// queries. The support analysis (query.AnalyzeSupport) computes,
// per relation, every live tuple ID any atom of the query could bind
// — the posting intersection of each atom's constant positions, or
// the whole relation for constant-free atoms — and proves the verdict
// a function of the visible touched tuples alone (no quantifier falls
// back to active-domain iteration). Only the conflict components
// containing touched tuples can then vary the answer: the walk
// enumerates their choice product (single-choice components are fixed
// into a per-relation base once, multi-choice ones are swapped in
// place), leaving untouched components invisible — observationally
// identical to fixing them to an arbitrary preferred choice. The
// query itself is compiled once (query.PrepareClosed) and re-run per
// combination by swapping visibility subsets.
//
// handled=false means the support analysis declined (the verdict may
// depend on tuples outside the atoms' reach) and the caller must fall
// back to the full enumeration.
func evaluateQuantPruned(f core.Family, in Input, q query.Expr) (ans Answer, handled bool, err error) {
	sup, ok := query.AnalyzeSupport(q, in.model(nil))
	if !ok {
		return 0, false, nil
	}
	in.Stats.noteClosed(true)
	eng := in.engine()
	ctx := in.ctx()
	// Per touched relation: resolve the touched components' choice
	// sets, fix single-choice components into the relation's base
	// subset, and queue multi-choice components for the walk.
	type multiComp struct {
		set     *bitset.Set // the relation's visible subset, mutated in place
		choices []*bitset.Set
	}
	subsets := make(map[string]*bitset.Set)
	var multi []multiComp
	for _, r := range in.Rels {
		name := r.Inst.Schema().Name()
		ids, all := sup.TouchedIDs(name)
		if !all && (ids == nil || ids.Empty()) {
			// Untouched relation: left fully visible, like the ground
			// path — no atom can bind any of its tuples anyway.
			continue
		}
		g := r.Pri.Graph()
		var lists [][]*bitset.Set
		if all {
			lists, err = eng.ComponentChoicesCtx(ctx, f, r.Pri)
		} else {
			compIDs := make([]int, 0, ids.Len())
			ids.Range(func(id int) bool {
				compIDs = append(compIDs, g.ComponentOf(id))
				return true
			})
			sort.Ints(compIDs)
			var comps [][]int
			for i, cid := range compIDs {
				if i > 0 && cid == compIDs[i-1] {
					continue
				}
				comps = append(comps, g.Component(cid))
			}
			lists, err = eng.ChoicesForCtx(ctx, f, r.Pri, comps)
		}
		if err != nil {
			return 0, true, err
		}
		set := bitset.New(g.Len())
		for _, cs := range lists {
			switch {
			case len(cs) == 0:
				return 0, true, fmt.Errorf("cqa: component with no preferred choice (P1 violated?)")
			case len(cs) == 1:
				set.UnionWith(cs[0])
			default:
				multi = append(multi, multiComp{set: set, choices: cs})
			}
		}
		subsets[name] = set
	}
	// Compile once, swap visibility per combination.
	prep, ok := query.PrepareClosed(in.model(subsets), q)
	if !ok {
		return 0, true, fmt.Errorf("cqa: internal: query with a support analysis did not prepare: %s", q)
	}
	seenTrue, seenFalse := false, false
	var evalErr error
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(multi) {
			if err := ctx.Err(); err != nil {
				evalErr = err
				return false
			}
			holds, err := prep.Eval(ctx)
			if err != nil {
				evalErr = err
				return false
			}
			if holds {
				seenTrue = true
			} else {
				seenFalse = true
			}
			return !(seenTrue && seenFalse)
		}
		mc := multi[i]
		for _, c := range mc.choices {
			// Components are disjoint, so the in-place union/difference
			// swap is exact (the same walk EnumerateCtx performs).
			mc.set.UnionWith(c)
			cont := rec(i + 1)
			mc.set.DifferenceWith(c)
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0)
	if evalErr != nil {
		return 0, true, evalErr
	}
	// len(multi) == 0 evaluates exactly once: every touched component
	// is single-choice (or nothing is touched at all), so all
	// preferred repairs agree and the single verdict is certain.
	ans, err = verdict(seenTrue, seenFalse)
	return ans, true, err
}
