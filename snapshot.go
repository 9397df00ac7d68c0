package prefcqa

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"prefcqa/internal/bitset"
	"prefcqa/internal/clean"
	"prefcqa/internal/cqa"
	"prefcqa/internal/query"
	"prefcqa/internal/repair"
)

// Snapshot is an immutable version of a DB: every relation at one
// version (instance, conflict graph, priority, component index), and
// the write-version that names it. The DB publishes one per mutation,
// and DB.Snapshot returns the current one. Queries against a snapshot
// are unaffected by later mutation of the DB — writers publish new
// versions, the snapshot keeps the old ones — so a reader can issue
// any number of consistent reads while the database churns.
//
// A snapshot shares the DB's evaluation engine and per-relation count
// caches; cache entries are keyed by immutable (era, component ID)
// identities, so sharing them across versions is safe. What a read
// derives from every component of a relation version (its resolved
// components) is kept on that version and shared by every snapshot
// holding it. The evaluation input over the versions is assembled on
// the snapshot's first read and reused by every later one, and query
// texts are analysed through the DB's cache of analysed queries
// (cqa.QueryCache), under the snapshot's schema epoch: a repeated text
// is parsed, validated and analysed once per set of relations, not
// once per read.
//
// The Context-suffixed variants accept a cancellation context that is
// plumbed down into the evaluation engine and checked per chunk of
// conflict-graph components and per enumerated repair — the serving
// layer uses them to enforce per-request deadlines. The plain variants
// never cancel.
type Snapshot struct {
	db    *DB
	cat   *catalog
	heads []*cqa.Relation // per relation of cat; Pri is nil while unbuilt
	wv    uint64          // the write-version
	built bool            // every relation is built: DB.Snapshot returns only such versions

	inOnce sync.Once
	in     cqa.Input // the evaluation input over the versions, without a context
	inErr  error

	verOnce  sync.Once
	versions map[string]uint64
}

// Snapshot returns the database's current version: one atomic load,
// with no lock and no allocation, once every relation is built. The
// cut is atomic across relations, since the writer publishes whole
// versions: the snapshot equals the database's real state at one
// instant — never relation A from one moment and relation B from
// another. (Individual mutation calls are the atomic unit: a snapshot
// may still land between two calls of a logical multi-call update.)
//
// A relation that no read has built yet is built here, once, under
// the writer mutex; if its recorded preferences do not form a
// priority, the error (a PriorityError) is returned and the relation
// stays unbuilt.
func (db *DB) Snapshot() (*Snapshot, error) {
	if s := db.cur.Load(); s.built {
		return s, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	s := db.cur.Load()
	if s.built {
		return s, nil
	}
	for _, r := range db.cat.rels {
		if r.head.Pri == nil {
			head, err := r.build(r.head.Inst, r.head.FDs, r.prefs)
			if err != nil {
				return nil, err
			}
			r.head = head
		}
	}
	return db.publishLocked(s.wv), nil
}

// WriteVersion returns the database's write-version at this snapshot:
// every mutation that returned before the snapshot was taken is in
// it.
func (s *Snapshot) WriteVersion() uint64 { return s.wv }

// Relations lists the snapshot's relation names in creation order.
func (s *Snapshot) Relations() []string {
	return slices.Clone(s.cat.order)
}

// Versions returns the instance version of every relation — useful to
// confirm which state a long-running reader is looking at. The map is
// made once per snapshot and shared by every caller: it must not be
// modified.
func (s *Snapshot) Versions() map[string]uint64 {
	s.verOnce.Do(func() {
		s.versions = make(map[string]uint64, len(s.heads))
		for i, name := range s.cat.order {
			s.versions[name] = s.heads[i].Inst.Version()
		}
	})
	return s.versions
}

// Instance returns the pinned instance of a relation.
func (s *Snapshot) Instance(rel string) (*Instance, bool) {
	i, ok := s.cat.index[rel]
	if !ok {
		return nil, false
	}
	return s.heads[i].Inst, true
}

// rel returns a relation's version in the snapshot.
func (s *Snapshot) rel(name string) (*cqa.Relation, error) {
	i, ok := s.cat.index[name]
	if !ok {
		return nil, fmt.Errorf("prefcqa: unknown relation %q", name)
	}
	return s.heads[i], nil
}

// input returns the CQA input over the pinned versions, cancelled by
// ctx; the input itself is assembled once per snapshot.
func (s *Snapshot) input(ctx context.Context) (cqa.Input, error) {
	s.inOnce.Do(func() {
		in, err := cqa.NewInput(s.heads...)
		s.in, s.inErr = in.WithEngine(s.db.engine).WithStats(s.db.stats), err
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
	a, err := s.db.queries.Analyzed(in, uint64(len(s.cat.order)), src)
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

// QueryOpenContext is QueryOpen with cancellation, checked as the
// candidate bindings are enumerated (spine rows and ranged
// active-domain values) and during each candidate's certain-answer
// check.
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
	i, ok := s.cat.index[rel]
	if !ok {
		return 0, fmt.Errorf("prefcqa: unknown relation %q", rel)
	}
	return s.db.engine.CountCachedCtx(ctx, f, s.heads[i].Pri, s.cat.rels[i].counts)
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
	built, err := s.rel(rel)
	if err != nil {
		return err
	}
	res, err := built.Resolved(ctx, s.db.engine, f)
	if err != nil {
		return err
	}
	err = res.Enumerate(ctx, func(set *bitset.Set) bool {
		return yield(built.Inst.Subset(set))
	})
	if err == repair.ErrStopped {
		return nil // the consumer stopped; not a failure
	}
	return err
}

// Clean runs Algorithm 1 on the pinned version of the relation.
func (s *Snapshot) Clean(rel string) (*Instance, error) {
	built, err := s.rel(rel)
	if err != nil {
		return nil, err
	}
	return built.Inst.Subset(clean.Deterministic(built.Pri)), nil
}

// Conflicts returns the number of conflicting tuple pairs of a
// relation at the pinned version.
func (s *Snapshot) Conflicts(rel string) (int, error) {
	built, err := s.rel(rel)
	if err != nil {
		return 0, err
	}
	return built.Pri.Graph().NumEdges(), nil
}

// Components returns the number of connected components of a
// relation's conflict graph at the pinned version — the unit of
// parallel evaluation.
func (s *Snapshot) Components(rel string) (int, error) {
	built, err := s.rel(rel)
	if err != nil {
		return 0, err
	}
	return built.Pri.Graph().NumComponents(), nil
}
