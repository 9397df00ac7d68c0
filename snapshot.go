package prefcqa

import (
	"context"
	"fmt"
	"sync"

	"prefcqa/internal/bitset"
	"prefcqa/internal/clean"
	"prefcqa/internal/core"
	"prefcqa/internal/cqa"
	"prefcqa/internal/query"
	"prefcqa/internal/repair"
)

// Snapshot is an immutable point-in-time view of a DB: every relation
// is pinned at one published version (instance, conflict graph,
// priority, component index). Queries against a snapshot are
// unaffected by concurrent mutation of the DB — writers publish new
// versions, the snapshot keeps the old ones — so a reader can issue
// any number of consistent reads while the database churns.
//
// A snapshot shares the DB's evaluation engine and per-relation count
// caches; cache entries are keyed by immutable (era, component ID)
// identities, so sharing them across versions is safe. What a read
// derives from every component of a pinned version (its resolved
// components) is kept on that version and shared by all snapshots
// pinning it. The evaluation input over the pinned versions is
// assembled on the snapshot's first read and reused by every later one,
// and query texts are analysed through the DB's cache of analysed
// queries (cqa.QueryCache), under the schema epoch the snapshot pinned:
// a repeated text is parsed, validated and analysed once per set of
// relations, not once per read.
//
// The Context-suffixed variants accept a cancellation context that is
// plumbed down into the evaluation engine and checked per chunk of
// conflict-graph components and per enumerated repair — the serving
// layer uses them to enforce per-request deadlines. The plain variants
// never cancel.
type Snapshot struct {
	engine  *core.Engine
	order   []string
	rels    map[string]snapRel
	stats   *cqa.EvalStats  // shared with the owning DB; see DB.QueryStats
	queries *cqa.QueryCache // the owning DB's
	epoch   uint64          // the DB's schema epoch at the pin

	inOnce sync.Once
	in     cqa.Input // the evaluation input over the pinned versions, without a context
	inErr  error
}

type snapRel struct {
	rel    *cqa.Relation
	counts *core.CountCache
}

// Snapshot materializes any pending mutations and returns an
// immutable view of every relation's current version. The cut is
// atomic across relations: mutators hold the DB's snapshot gate in
// read mode, so while the versions are pinned no relation can move,
// and the snapshot equals the database's real state at one instant —
// never relation A from one moment and relation B from another.
// (Individual mutation calls are the atomic unit: a snapshot may
// still land between two calls of a logical multi-call update.)
// O(pending delta); with nothing pending it is a handful of atomic
// loads per relation.
func (db *DB) Snapshot() (*Snapshot, error) {
	// The gate also guards db.order and db.rels: relation creation
	// (including a follower's replayed creates) appends under it.
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	s := &Snapshot{
		engine:  db.engine,
		order:   append([]string(nil), db.order...),
		rels:    make(map[string]snapRel, len(db.order)),
		stats:   db.stats,
		queries: &db.queries,
		epoch:   db.schemaEpoch,
	}
	for _, name := range db.order {
		r := db.rels[name]
		built, err := r.build()
		if err != nil {
			return nil, fmt.Errorf("prefcqa: relation %s: %w", name, err)
		}
		s.rels[name] = snapRel{rel: built, counts: r.counts}
	}
	return s, nil
}

// Relations lists the snapshot's relation names in creation order.
func (s *Snapshot) Relations() []string {
	return append([]string(nil), s.order...)
}

// Versions returns the pinned instance version of every relation —
// useful to confirm which state a long-running reader is looking at.
func (s *Snapshot) Versions() map[string]uint64 {
	out := make(map[string]uint64, len(s.rels))
	for name, sr := range s.rels {
		out[name] = sr.rel.Inst.Version()
	}
	return out
}

// Instance returns the pinned instance of a relation.
func (s *Snapshot) Instance(rel string) (*Instance, bool) {
	sr, ok := s.rels[rel]
	if !ok {
		return nil, false
	}
	return sr.rel.Inst, true
}

// input returns the CQA input over the pinned versions, cancelled by
// ctx; the input itself is assembled once per snapshot.
func (s *Snapshot) input(ctx context.Context) (cqa.Input, error) {
	s.inOnce.Do(func() {
		rels := make([]*cqa.Relation, 0, len(s.order))
		for _, name := range s.order {
			rels = append(rels, s.rels[name].rel)
		}
		in, err := cqa.NewInput(rels...)
		s.in, s.inErr = in.WithEngine(s.engine).WithStats(s.stats), err
	})
	if s.inErr != nil {
		return cqa.Input{}, s.inErr
	}
	return s.in.WithContext(ctx), nil
}

// analyzed returns the input over the pinned versions, cancelled by
// ctx, and the analysed query of src, validated against their schemas.
func (s *Snapshot) analyzed(ctx context.Context, src string) (cqa.Input, *query.Analyzed, error) {
	in, err := s.input(ctx)
	if err != nil {
		return cqa.Input{}, nil, err
	}
	a, err := s.queries.Analyzed(in, s.epoch, src)
	return in, a, err
}

// Query evaluates a closed first-order query under the family's
// preferred-repair semantics against the pinned versions.
func (s *Snapshot) Query(f Family, src string) (Answer, error) {
	return s.QueryContext(context.Background(), f, src)
}

// QueryContext is Query with cancellation: once ctx is cancelled the
// evaluation aborts with ctx.Err(), checked per chunk of resolved
// conflict-graph components and per enumerated repair combination.
func (s *Snapshot) QueryContext(ctx context.Context, f Family, src string) (Answer, error) {
	in, a, err := s.analyzed(ctx, src)
	if err != nil {
		return 0, err
	}
	return cqa.EvaluateAnalyzed(f, in, a)
}

// Certain reports whether true is the f-consistent answer to the
// closed query on the pinned versions.
func (s *Snapshot) Certain(f Family, src string) (bool, error) {
	a, err := s.Query(f, src)
	if err != nil {
		return false, err
	}
	return a == True, nil
}

// Possible reports whether the closed query holds in at least one
// preferred repair of the family (brave semantics).
func (s *Snapshot) Possible(f Family, src string) (bool, error) {
	a, err := s.Query(f, src)
	if err != nil {
		return false, err
	}
	return a != False, nil
}

// QueryOpen evaluates an open query (free variables allowed) and
// returns its certain answers on the pinned versions.
func (s *Snapshot) QueryOpen(f Family, src string) ([]Binding, error) {
	return s.QueryOpenContext(context.Background(), f, src)
}

// QueryOpenContext is QueryOpen with cancellation, checked per
// candidate substitution of the free variables.
func (s *Snapshot) QueryOpenContext(ctx context.Context, f Family, src string) ([]Binding, error) {
	in, a, err := s.analyzed(ctx, src)
	if err != nil {
		return nil, err
	}
	return cqa.FreeAnswersAnalyzed(f, in, a)
}

// CountRepairs returns the number of preferred repairs of a relation
// at the pinned version.
func (s *Snapshot) CountRepairs(f Family, rel string) (int64, error) {
	return s.CountRepairsContext(context.Background(), f, rel)
}

// CountRepairsContext is CountRepairs with cancellation, checked per
// chunk of conflict-graph components the count has to evaluate. The
// relation's count cache keeps the total of the version counted last,
// so repeated counts of an unchanged version return it.
func (s *Snapshot) CountRepairsContext(ctx context.Context, f Family, rel string) (int64, error) {
	sr, ok := s.rels[rel]
	if !ok {
		return 0, fmt.Errorf("prefcqa: unknown relation %q", rel)
	}
	return s.engine.CountCachedCtx(ctx, f, sr.rel.Pri, sr.counts)
}

// Repairs materializes the family's preferred repairs of one relation
// at the pinned version. Use CountRepairs first — the result can be
// exponential.
func (s *Snapshot) Repairs(f Family, rel string) ([]*Instance, error) {
	var out []*Instance
	err := s.EnumerateRepairs(context.Background(), f, rel, func(inst *Instance) bool {
		out = append(out, inst)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EnumerateRepairs streams the family's preferred repairs of one
// relation at the pinned version, in canonical enumeration order,
// without materializing the full (possibly exponential) list. yield
// returns false to stop early (not an error). Once ctx is cancelled
// the enumeration aborts with ctx.Err(), checked before every repair.
// The walk runs over the pinned version's resolved components (built
// on the version's first use, see cqa.Relation.Resolved). This is the
// backing of the serving layer's NDJSON repair streaming.
func (s *Snapshot) EnumerateRepairs(ctx context.Context, f Family, rel string, yield func(*Instance) bool) error {
	sr, ok := s.rels[rel]
	if !ok {
		return fmt.Errorf("prefcqa: unknown relation %q", rel)
	}
	res, err := sr.rel.Resolved(ctx, s.engine, f)
	if err != nil {
		return err
	}
	err = res.Enumerate(ctx, func(set *bitset.Set) bool {
		return yield(sr.rel.Inst.Subset(set))
	})
	if err == repair.ErrStopped {
		return nil // the consumer stopped; not a failure
	}
	return err
}

// Clean runs Algorithm 1 on the pinned version of the relation.
func (s *Snapshot) Clean(rel string) (*Instance, error) {
	sr, ok := s.rels[rel]
	if !ok {
		return nil, fmt.Errorf("prefcqa: unknown relation %q", rel)
	}
	return sr.rel.Inst.Subset(clean.Deterministic(sr.rel.Pri)), nil
}

// Conflicts returns the number of conflicting tuple pairs of a
// relation at the pinned version.
func (s *Snapshot) Conflicts(rel string) (int, error) {
	sr, ok := s.rels[rel]
	if !ok {
		return 0, fmt.Errorf("prefcqa: unknown relation %q", rel)
	}
	return sr.rel.Pri.Graph().NumEdges(), nil
}

// Components returns the number of connected components of a
// relation's conflict graph at the pinned version — the unit of
// parallel evaluation.
func (s *Snapshot) Components(rel string) (int, error) {
	sr, ok := s.rels[rel]
	if !ok {
		return 0, fmt.Errorf("prefcqa: unknown relation %q", rel)
	}
	return sr.rel.Pri.Graph().NumComponents(), nil
}
