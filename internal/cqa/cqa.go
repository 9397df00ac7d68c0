// Package cqa computes preferred consistent query answers
// (Definition 3): true is the X-consistent answer to a closed query Q
// iff Q holds in every preferred repair of the family X. Every closed
// query — ground, quantified, or one instantiated from an open query's
// candidate — takes one path (evaluateClosed): repairs are views, the
// walk is pruned to the components the query's support touches, a
// monotone or antitone query is decided on the union and the
// intersection of the preferred repairs when that settles it, and the
// remaining combinations are enumerated with early exit. A query whose
// support analysis declines walks the preferred repairs of the whole
// database the same way. Beside it the package keeps the
// polynomial-time ground quantifier-free algorithm for the plain Rep
// family (GroundQFCertain: first row of Fig. 5, after Chomicki &
// Marcinkowski [6]) as a tested reproduction no served query takes.
//
// Per-component repair choices come from a core.Engine (Input.Engine;
// sequential by default) at the granularity the query's support has.
// A support that is a set of tuple IDs (ground atoms, posting-list
// supports) resolves the touched components inline, per request, at
// O(touched) — its visibility set included: the set is lent by the
// relation's version and given back emptied of the touched components'
// tuples, never allocated to reach the largest touched tuple ID (see
// touched). A support that spans a whole relation, and every relation
// of a declined query, read the relation's core.Resolved — every
// single-choice component folded into one base set plus the list of
// multi-choice components — which is built once per Relation (one
// immutable database version) and kept on it, so such a request costs
// a clone of the base and a walk over the multi-choice components.
// Either way choices stay in component-local form and are applied to
// one visibility set per relation in place (core.Walk).
package cqa

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
	"prefcqa/internal/core"
	"prefcqa/internal/fd"
	"prefcqa/internal/priority"
	"prefcqa/internal/query"
	"prefcqa/internal/relation"
)

// Relation bundles one relation's inconsistency context: the
// instance, its dependencies, the conflict graph, and the priority.
// It is one immutable version of the relation: once it has been
// evaluated, Inst, FDs and Pri must not change (the facade publishes a
// new Relation per mutation batch), which is what lets it keep, per
// family, what was derived from all of its components — see Resolved.
// That is built on first use, shared by every reader of the version
// and freed with it; nothing invalidates it.
type Relation struct {
	Inst *relation.Instance
	FDs  *fd.Set
	Pri  *priority.Priority

	derived [core.NumFamilies]struct {
		mu       sync.Mutex // one builder at a time; readers never take it
		resolved atomic.Pointer[core.Resolved]
	}
	// free holds the emptied visibility sets of released touched parts
	// over this version (see touched).
	free struct {
		mu   sync.Mutex
		sets []*bitset.Set
	}
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

// Resolved returns the version's core.Resolved for the family,
// building it on first use (e.Resolve, cancellable through ctx) and
// keeping it on the version. Every engine configuration resolves to
// the same value, so which engine builds it does not matter.
// Concurrent first users wait for one build rather than each doing
// their own; a build abandoned on cancellation stores nothing.
func (r *Relation) Resolved(ctx context.Context, e *core.Engine, f core.Family) (*core.Resolved, error) {
	d := &r.derived[f]
	if res := d.resolved.Load(); res != nil {
		return res, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if res := d.resolved.Load(); res != nil {
		return res, nil
	}
	res, err := e.Resolve(ctx, f, r.Pri)
	if err != nil {
		return nil, err
	}
	d.resolved.Store(res)
	return res, nil
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
	// chunk of conflict-graph components it resolves and the repair
	// walks check it per enumerated combination, so a server deadline
	// aborts a long evaluation with ctx.Err() instead of running to
	// completion.
	Ctx context.Context
	// Stats, when non-nil, receives the evaluation path counters (see
	// EvalStats). Shared across inputs by the facade.
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

// WithStats returns a copy of the input recording its path counters
// into s.
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

// Evaluate computes the three-valued answer to the closed query q
// over family f, stopping as soon as both a satisfying and a
// falsifying preferred repair have been seen.
func Evaluate(f core.Family, in Input, q query.Expr) (Answer, error) {
	if err := query.Validate(q, in.schemas()); err != nil {
		return 0, err
	}
	return EvaluateAnalyzed(f, in, query.Analyze(q))
}

// EvaluateAnalyzed is Evaluate on a query already analysed and
// validated against in's schemas — what a QueryCache hands out.
func EvaluateAnalyzed(f core.Family, in Input, a *query.Analyzed) (Answer, error) {
	if len(a.Free) > 0 {
		return 0, fmt.Errorf("cqa: query has free variables %v; use FreeAnswers", a.Free)
	}
	return evaluateClosed(f, in, a)
}

// evaluateClosed answers an already-validated closed query: its support
// decides the parts of the walk, the query is prepared once against
// their sets, and walkVerdict evaluates it over them. Kind-mismatched
// constants inside atoms (which arise when open queries are instantiated
// over the mixed active domain) simply make the atom false.
//
// The support analysis (query.AnalyzeSupport) computes, per relation,
// every live tuple ID an atom of the query could bind — the one tuple a
// ground atom names, the posting intersection of an atom's constant
// positions, or the whole relation for constant-free atoms — and proves
// the verdict a function of the visible touched tuples alone (no
// quantifier consults the active domain). Only the conflict components
// containing touched tuples can then vary the answer, and what the
// support is decides what is paid: an ID set resolves its components
// inline (touchedPart; O(touched), nothing kept), leaving untouched
// components invisible — observationally identical to fixing them to
// an arbitrary preferred choice, every family being componentwise
// non-empty; a support spanning the whole relation clones the base of
// the version's Resolved and walks its multi-choice components; a
// relation no atom reaches stays fully visible. When the analysis
// declines, the verdict may depend on any tuple: every relation's
// Resolved is walked — the preferred repairs of the whole database —
// and the bounds, which need a domain-free query, are not tried.
//
// The query itself is compiled once (query.PrepareClosed) and re-run
// per combination; the walk swaps visibility in place.
func evaluateClosed(f core.Family, in Input, a *query.Analyzed) (Answer, error) {
	sup, pruned := query.AnalyzeSupport(a, in.model(nil))
	in.Stats.noteClosed(pruned)
	pol := query.Positive | query.Negative
	if pruned {
		pol = a.Pol
	}
	eng, ctx := in.engine(), in.ctx()
	subsets := make(map[string]*bitset.Set, len(in.Rels))
	parts := make([]core.Part, 0, len(in.Rels))
	var lentBuf [2]touched // a point read touches one or two relations
	lent := lentBuf[:0]
	defer func() {
		for _, t := range lent {
			t.release()
		}
	}()
	for _, r := range in.Rels {
		name := r.Inst.Schema().Name()
		ids, all := []relation.TupleID(nil), true
		if pruned {
			ids, all = sup.TouchedIDs(name)
		}
		var part core.Part
		switch {
		case all:
			res, err := r.Resolved(ctx, eng, f)
			if err != nil {
				return 0, err
			}
			part = res.Part()
		case len(ids) == 0:
			continue
		default:
			// The support is this call's own: its tuple IDs become their
			// component IDs in place.
			g := r.Pri.Graph()
			for i, id := range ids {
				ids[i] = g.ComponentOf(id)
			}
			t, err := touchedPart(ctx, eng, f, r, ids)
			lent = append(lent, t)
			if err != nil {
				return 0, err
			}
			part = t.part
		}
		subsets[name] = part.Set
		parts = append(parts, part)
	}
	// With no multi-choice component the walk evaluates exactly once:
	// every touched component is single-choice (or nothing is touched
	// at all), so all preferred repairs agree and the verdict is
	// certain.
	prep := query.PrepareClosed(in.model(subsets), a)
	return walkVerdict(ctx, in.Stats, parts, pol, func() (bool, error) { return prep.Eval(ctx) })
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

// touched is a walk part over the components a query's support touches
// in one relation, on a visibility set lent by the relation's version.
//
// A point read thereby allocates nothing of the relation's size. A set
// is lent empty and given back empty: every bit a walk part's set ever
// holds is a tuple of one of its components — Fold, Walk and OnBound add
// only component members — so removing the components' tuples clears it
// in O(touched), however large the relation. The version keeps every
// set given back — never more than the reads that ran on it at once had
// out — and they go with the version. (Not a sync.Pool: a set a
// collection drops, or one left on another processor, is allocated
// again at the relation's size.)
type touched struct {
	rel   *Relation
	part  core.Part
	comps [][]int
}

// lendSet returns an empty visibility set over the version's tuples.
func (r *Relation) lendSet() *bitset.Set {
	r.free.mu.Lock()
	defer r.free.mu.Unlock()
	n := len(r.free.sets)
	if n == 0 {
		return new(bitset.Set)
	}
	s := r.free.sets[n-1]
	r.free.sets = r.free.sets[:n-1]
	return s
}

// release empties the part's set and gives it back to its version.
func (t touched) release() {
	for _, comp := range t.comps {
		for _, id := range comp {
			t.part.Set.Remove(id)
		}
	}
	free := &t.rel.free
	free.mu.Lock()
	free.sets = append(free.sets, t.part.Set)
	free.mu.Unlock()
}

// touchedPart resolves the components of r with the given IDs (any
// order, duplicates allowed) inline and returns them as a walk part: one
// visibility set for the relation, lent by the version, with every
// single-choice component already applied and the multi-choice ones left
// to the walk. Components outside compIDs stay invisible — no atom of
// the query can reach their tuples. The caller releases the part, error
// or not, once nothing reads its set.
func touchedPart(ctx context.Context, e *core.Engine, f core.Family, r *Relation, compIDs []int) (touched, error) {
	g := r.Pri.Graph()
	sort.Ints(compIDs)
	t := touched{rel: r, part: core.Part{Set: r.lendSet()}, comps: make([][]int, 0, len(compIDs))}
	for i, cid := range compIDs {
		if i == 0 || cid != compIDs[i-1] {
			t.comps = append(t.comps, g.Component(cid))
		}
	}
	choices, err := e.ChoicesForCtx(ctx, f, r.Pri, t.comps)
	if err != nil {
		return t, err
	}
	for _, c := range choices {
		if len(c.Local) == 0 {
			return t, fmt.Errorf("cqa: component with no preferred choice (P1 violated?)")
		}
		t.part.Fold(c)
	}
	return t, nil
}

// boundVerdict tries to decide a query of polarity pol on the two
// bounds of the sets Walk shows over parts: their union U and their
// intersection L, between which each of them lies. With no negative
// atom the query is monotone in the visible tuples (callers bring only
// domain-free queries): false on U is false on all the sets, true on L
// true on all. No positive atom swaps the bounds. Undetermined means
// the bounds do not tell.
func boundVerdict(ctx context.Context, parts []core.Part, pol query.Polarity, holds func() (bool, error)) (Answer, error) {
	if pol == query.Positive|query.Negative {
		return Undetermined, nil
	}
	onBound := func(upper bool) (h bool, err error) {
		if err = ctx.Err(); err == nil {
			core.OnBound(parts, upper, func() { h, err = holds() })
		}
		return h, err
	}
	// The query holds on the bound most if it holds on any of the sets,
	// and on the other bound only if it holds on all of them.
	most := pol != query.Negative
	if h, err := onBound(most); err != nil || !h {
		return CertainlyFalse, err
	}
	if h, err := onBound(!most); err != nil || h {
		return CertainlyTrue, err
	}
	return Undetermined, nil
}

// walkVerdict decides a query of polarity pol over the preferred
// repairs parts span; holds evaluates it on the parts' current sets.
// More than two leaves are first tried on their bounds (a decision is
// counted in stats): with one or two the walk's early exit never costs
// more, and with none it keeps its error. The walk evaluates holds at
// every combination until it has seen both outcomes. ctx is checked once
// per evaluation.
func walkVerdict(ctx context.Context, stats *EvalStats, parts []core.Part, pol query.Polarity, holds func() (bool, error)) (ans Answer, err error) {
	leaves := 1
	for _, p := range parts {
		for _, c := range p.Multi {
			leaves = min(leaves*len(c.Local), 3)
		}
	}
	if leaves > 2 {
		if ans, err = boundVerdict(ctx, parts, pol, holds); err != nil {
			return 0, err
		}
		if ans != Undetermined {
			stats.noteBounded()
			return ans, nil
		}
	}
	var seenTrue, seenFalse bool
	core.Walk(parts, func() bool {
		if err = ctx.Err(); err != nil {
			return false
		}
		var h bool
		if h, err = holds(); err != nil {
			return false
		}
		if h {
			seenTrue = true
		} else {
			seenFalse = true
		}
		return !(seenTrue && seenFalse)
	})
	if err != nil {
		return 0, err
	}
	return verdict(seenTrue, seenFalse)
}
