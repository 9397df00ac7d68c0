// Package prefcqa is a library for preference-driven querying of
// inconsistent relational databases, implementing Staworko, Chomicki
// and Marcinkowski, "Preference-Driven Querying of Inconsistent
// Relational Databases" (EDBT 2006 Workshops).
//
// A database may violate its functional dependencies (e.g. after
// integrating autonomous sources). Instead of cleaning it — deleting
// tuples and losing information — the library answers queries with
// certainty semantics over the database's repairs (maximal consistent
// subsets), optionally narrowed by user preferences between
// conflicting tuples to one of the paper's preferred-repair families:
//
//	Rep     all repairs (classic consistent query answers)
//	Local   L-Rep: locally optimal repairs
//	SemiGlobal S-Rep: semi-globally optimal repairs
//	Global  G-Rep: globally optimal repairs
//	Common  C-Rep: outcomes of the winnow-based cleaning (Algorithm 1)
//
// Quick start:
//
//	db := prefcqa.New()
//	mgr, _ := db.CreateRelation("Mgr",
//	    prefcqa.NameAttr("Name"), prefcqa.NameAttr("Dept"),
//	    prefcqa.IntAttr("Salary"), prefcqa.IntAttr("Reports"))
//	mary, _ := mgr.Insert("Mary", "R&D", 40, 3)
//	john, _ := mgr.Insert("John", "R&D", 10, 2)
//	_ = mgr.AddFD("Dept -> Name, Salary, Reports")
//	_ = mgr.Prefer(mary, john) // resolve their conflict toward Mary
//	ans, _ := db.Query(prefcqa.Global,
//	    "EXISTS d, s, r . Mgr('Mary', d, s, r)")
//	fmt.Println(ans) // true / false / undetermined
package prefcqa

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"prefcqa/internal/axioms"
	"prefcqa/internal/bitset"
	"prefcqa/internal/clean"
	"prefcqa/internal/conflict"
	"prefcqa/internal/core"
	"prefcqa/internal/cqa"
	"prefcqa/internal/fd"
	"prefcqa/internal/priority"
	"prefcqa/internal/relation"
	"prefcqa/internal/wal"
)

// Core data-model types, re-exported from the engine.
type (
	// Value is a typed constant: a name (domain D) or an integer
	// (domain N).
	Value = relation.Value
	// Tuple is one row of a relation.
	Tuple = relation.Tuple
	// TupleID identifies an inserted tuple within its relation.
	TupleID = relation.TupleID
	// Attribute is a named, typed column.
	Attribute = relation.Attribute
	// Schema describes a relation.
	Schema = relation.Schema
	// Instance is a set of tuples over one schema.
	Instance = relation.Instance
	// Binding is one certain answer to an open query.
	Binding = cqa.Binding
	// Family selects a preferred-repair family.
	Family = core.Family
	// Answer is a three-valued consistent-query-answer verdict.
	Answer = cqa.Answer
	// AxiomReport records which of P1-P4 held on probing.
	AxiomReport = axioms.Report
)

// The preferred-repair families (§3 of the paper).
const (
	Rep        = core.Rep
	Local      = core.Local
	SemiGlobal = core.SemiGlobal
	Global     = core.Global
	Common     = core.Common
)

// Three-valued answers.
const (
	True         = cqa.CertainlyTrue
	False        = cqa.CertainlyFalse
	Undetermined = cqa.Undetermined
)

// Name builds a name constant (domain D).
func Name(s string) Value { return relation.Name(s) }

// Int builds an integer constant (domain N).
func Int(i int64) Value { return relation.Int(i) }

// NameAttr declares a name-typed attribute.
func NameAttr(name string) Attribute { return relation.NameAttr(name) }

// IntAttr declares an integer-typed attribute.
func IntAttr(name string) Attribute { return relation.IntAttr(name) }

// ParseFamily parses a family name such as "rep", "local", "g-rep".
func ParseFamily(s string) (Family, error) { return core.ParseFamily(s) }

// NewSchema builds a relation schema.
func NewSchema(name string, attrs ...Attribute) (*Schema, error) {
	return relation.NewSchema(name, attrs...)
}

// NewInstance returns an empty instance of the schema.
func NewInstance(schema *Schema) *Instance { return relation.NewInstance(schema) }

// MakeTuple coerces native Go values (string → name, integer types →
// int, Value passed through) into a Tuple — the row-building
// companion of the client package's Insert.
func MakeTuple(vals ...any) (Tuple, error) { return relation.CoerceTuple(vals...) }

// Wire types of the JSON codec (see EncodeWire / DecodeWire): the
// value- and instance-level encoding of the prefserve protocol.
type (
	// WireAttr is one attribute of a wire-encoded schema.
	WireAttr = relation.WireAttr
	// WireInstance is the JSON wire form of a relation instance.
	WireInstance = relation.WireInstance
)

// EncodeWire encodes an instance's schema and live tuples for the
// JSON wire; DecodeWire is the inverse. Cells use the textual
// constant syntax of Value.String (integers bare, names
// single-quoted), so every value round-trips exactly.
func EncodeWire(inst *Instance) WireInstance { return relation.EncodeWire(inst) }

// DecodeWire rebuilds an instance from its wire form; tuple IDs are
// assigned densely in row order.
func DecodeWire(w WireInstance) (*Instance, error) { return relation.DecodeWire(w) }

// EncodeValue renders a value in the wire cell syntax; DecodeValue
// parses one against an attribute kind ("name" or "int" — see
// Attribute.Kind), rejecting mismatches.
func EncodeValue(v Value) string { return relation.EncodeValue(v) }

// DecodeValue parses a wire cell against the attribute kind of the
// column it belongs to.
func DecodeValue(kind relation.Kind, cell string) (Value, error) {
	return relation.DecodeValue(kind, cell)
}

// ReadCSV parses an instance from CSV with a typed header
// ("attr:kind" cells, kind ∈ {name, int}); see WriteCSV for the
// inverse. This is the on-disk format of the cmd tools.
func ReadCSV(relName string, src io.Reader) (*Instance, error) {
	return relation.ReadCSV(relName, src)
}

// WriteCSV writes an instance in the format ReadCSV accepts.
func WriteCSV(dst io.Writer, inst *Instance) error { return relation.WriteCSV(dst, inst) }

// DB is a database of possibly-inconsistent relations with
// per-relation functional dependencies and tuple preferences.
//
// Query evaluation runs on a parallel engine: per-component repair
// choice sets are sharded across a worker pool and, by default,
// memoized across queries. Worker count and memoization change the
// speed only: every configuration returns identical results
// (TestParallelismEquivalence).
//
// Formula evaluation is plan-based: existential conjunctions compile
// into a physical plan with index access paths — equality probes of
// per-attribute secondary indexes, built lazily and maintained
// incrementally through mutations — and selectivity-ordered joins
// (see ExplainPlan). Planned and naive evaluation return identical
// answers.
//
// Every read (Query, QueryOpen, CountRepairs, Repairs, Clean,
// ExplainPlan) takes an implicit Snapshot and evaluates against it,
// so a read sees one atomic cut across all relations; take the
// Snapshot yourself to issue several reads against the same cut.
//
// The database is published as one immutable version behind an
// atomic pointer, and Snapshot loads it: a read never builds and never
// waits for a writer. The writer builds each version. A mutation
// (Insert, Delete, Prefer, AddFD) derives its relation's next built
// state — the delta of the conflict graph, priority and component
// index, at a cost proportional to the touched components, or a
// rebuild for a new dependency or a batch beyond a quarter of the
// instance — then logs the mutation and publishes the version. One
// writer mutex serializes the mutations of all relations, held from
// validation to publication, so versions are published in log order;
// a mutation whose derivation fails is refused and never logged (see
// PriorityError). A relation that no read has built yet (a new one,
// and every relation after Open) stays unbuilt under writes, so a bulk
// load builds once: the first Snapshot builds it, under the writer
// mutex, and from then on every write keeps it built.
type DB struct {
	// mu is the writer mutex. Every mutation, relation creation,
	// replicated record and checkpoint cut (not the checkpoint's
	// write) holds it, and so does the first Snapshot of an unbuilt
	// relation; it guards cat and the writer state of every Relation.
	// Readers never take it.
	mu  sync.Mutex
	cat *catalog                 // the registry as the writer sees it
	cur atomic.Pointer[Snapshot] // the published version

	engine *core.Engine
	// queries keeps the analysed query texts of the current schema
	// epoch (cqa.QueryCache) for every snapshot's reads.
	queries cqa.QueryCache

	// log is the write-ahead log of a durable DB (see Open); nil on an
	// in-memory DB, where the published version's counter is the
	// write-version. On a durable DB the log's record sequence is the
	// write-version. See WriteVersion.
	log     *wal.Log
	walOpts wal.Options
	// ckptBusy is held for the whole of a checkpoint, so one runs at a
	// time: an automatic one starts only when it can take it (TryLock),
	// Checkpoint and Close wait for it. The goroutine of an automatic
	// checkpoint releases it last, so Close waits that out too.
	ckptBusy sync.Mutex

	// readOnly marks a replication follower: public mutations are
	// refused (ErrReadOnly) while ReplApply keeps feeding the replicated
	// history in. Promote clears it. epoch is the in-memory replication
	// epoch; durable DBs track the epoch in the log instead. See Epoch.
	readOnly atomic.Bool
	epoch    atomic.Uint64

	parallelism int
	cache       bool
	incremental bool

	// stats aggregates open-query path and spine-executor counters
	// across direct queries and snapshots; see QueryStats.
	stats *cqa.EvalStats
}

// catalog is the relation registry of the versions between two
// relation creations, which share it. Relations are never dropped, so
// its length is the schema epoch the analysed-query cache keys on.
type catalog struct {
	order []string       // relation names in creation order
	index map[string]int // name → position in order
	rels  []*Relation
}

// Option configures a DB at construction time.
type Option func(*DB)

// The engine and maintenance knobs below have one value in use —
// nothing that ships sets them — so they are not part of the API; the
// differential tests reach them (export_test.go) to hold every
// configuration to identical results.

// withParallelism sets how many workers evaluate conflict-graph
// components concurrently. n == 1 evaluates sequentially on the
// calling goroutine; n <= 0 (the default) uses runtime.GOMAXPROCS.
func withParallelism(n int) Option {
	return func(db *DB) { db.parallelism = n }
}

// withCache enables or disables memoization of per-component repair
// choice sets (default on). Cached entries are keyed by the component
// structure and preference orientation, so structurally identical
// components — within one instance or across repeated queries — are
// evaluated once.
func withCache(on bool) Option {
	return func(db *DB) { db.cache = on }
}

// withIncremental enables or disables delta maintenance of the
// conflict graph, priority and component index across mutations
// (default on). When disabled, every mutation of a built relation
// rebuilds its state from scratch — the path an oversized batch takes
// anyway, and the reference the mutation tests and benchmarks compare
// against.
func withIncremental(on bool) Option {
	return func(db *DB) { db.incremental = on }
}

// New returns an empty database. With no options the evaluation
// engine uses a GOMAXPROCS-sized worker pool with memoization on, and
// mutations are maintained incrementally.
func New(opts ...Option) *DB {
	db := &DB{
		cat:         &catalog{index: map[string]int{}},
		parallelism: 0, cache: true, incremental: true,
		stats: &cqa.EvalStats{},
	}
	db.epoch.Store(1)
	for _, opt := range opts {
		opt(db)
	}
	db.engine = core.NewEngine(core.WithWorkers(db.parallelism), core.WithMemo(db.cache))
	db.publishLocked(0)
	return db
}

// publishLocked makes the writer's state the database's current
// version, at write-version wv: the catalog and every relation's head.
// O(relations). Caller holds db.mu (or owns db, before it is shared).
func (db *DB) publishLocked(wv uint64) *Snapshot {
	s := &Snapshot{db: db, cat: db.cat, heads: make([]*cqa.Relation, len(db.cat.rels)), wv: wv, built: true}
	for i, r := range db.cat.rels {
		s.heads[i] = r.head
		s.built = s.built && r.head.Pri != nil
	}
	db.cur.Store(s)
	return s
}

// lockWriter takes the writer mutex for a public mutation, refusing
// one on a read-only replica before anything is staged.
func (db *DB) lockWriter() error {
	db.mu.Lock()
	if db.readOnly.Load() {
		db.mu.Unlock()
		return ErrReadOnly
	}
	return nil
}

// Relation is one relation of the database together with its
// dependencies and preferences.
//
// Its built evaluation state (conflict graph, priority, component
// index) is versioned: each mutation stages the next version on a
// fork of the current one and, once it is logged, installs it as the
// relation's head; the database then publishes it. Published versions
// are immutable, so readers never block writers and a Snapshot stays
// consistent indefinitely.
type Relation struct {
	db     *DB
	name   string
	schema *Schema
	counts *core.CountCache // per-component repair counts, era-keyed

	// mu is the DB's writer mutex; it guards the writer state below.
	mu *sync.Mutex
	// head is the relation's latest version: what the database's next
	// published version holds for it. Its Pri is nil while no read has
	// built the relation.
	head *cqa.Relation
	// prefs is the preference history, for rebuilds and checkpoints;
	// prefSeen dedupes it.
	prefs        [][2]TupleID
	prefSeen     map[prefKey]struct{}
	prefsPruneAt int // next len(prefs) at which dead pairs are pruned
}

// change is one mutation of a relation, staged before it is logged:
// the instance it leaves (a fork of the head's when it inserts or
// deletes), the dependency set, the tuples it inserted and deleted and
// its fresh preference pairs.
type change struct {
	inst  *relation.Instance
	fds   *fd.Set
	delta conflict.Delta
	prefs [][2]TupleID
}

// freshRelation is the one constructor of a Relation: the instance's
// schema name must be unused, and the relation starts unbuilt, with an
// empty dependency set. register makes it visible. Caller holds db.mu.
func (db *DB) freshRelation(inst *relation.Instance) (*Relation, error) {
	name := inst.Schema().Name()
	if _, dup := db.cat.index[name]; dup {
		return nil, fmt.Errorf("prefcqa: relation %q already exists", name)
	}
	fds, err := fd.NewSet(inst.Schema())
	if err != nil {
		return nil, err
	}
	return &Relation{
		db:       db,
		name:     name,
		schema:   inst.Schema(),
		counts:   core.NewCountCache(),
		mu:       &db.mu,
		head:     &cqa.Relation{Inst: inst, FDs: fds},
		prefSeen: make(map[prefKey]struct{}),
	}, nil
}

// register adds r to the writer's catalog; the next publish makes it
// visible. Caller holds db.mu.
func (db *DB) register(r *Relation) {
	old := db.cat
	cat := &catalog{
		order: append(slices.Clip(old.order), r.name),
		index: maps.Clone(old.index),
		rels:  append(slices.Clip(old.rels), r),
	}
	cat.index[r.name] = len(cat.rels) - 1
	db.cat = cat
}

// CreateRelation adds an empty relation with the given schema.
func (db *DB) CreateRelation(name string, attrs ...Attribute) (*Relation, error) {
	schema, err := relation.NewSchema(name, attrs...)
	if err != nil {
		return nil, err
	}
	return db.AddInstance(relation.NewInstance(schema))
}

// AddInstance registers an existing instance (with no dependencies
// yet) under its schema name. The database takes the instance over:
// its first write to the relation freezes it, and later changes go
// through the Relation. On a durable DB the instance's whole tuple
// universe — including tombstones, which anchor the ID assignment — is
// logged as one creation record.
func (db *DB) AddInstance(inst *Instance) (*Relation, error) {
	r, seq, err := db.addInstance(inst)
	if err != nil {
		return nil, err
	}
	return r, db.commit(seq)
}

func (db *DB) addInstance(inst *Instance) (*Relation, uint64, error) {
	if err := db.lockWriter(); err != nil {
		return nil, 0, err
	}
	defer db.mu.Unlock()
	r, err := db.freshRelation(inst)
	if err != nil {
		return nil, 0, err
	}
	seq, err := db.logAppend(func() wal.Record {
		rec := wal.Record{Op: wal.OpCreate, Rel: r.name, Attrs: inst.Schema().WireAttrs()}
		rec.Rows, rec.IDs = encodeUniverse(inst)
		return rec
	})
	if err != nil {
		return nil, 0, err
	}
	db.register(r)
	db.publishLocked(seq)
	return r, seq, nil
}

// Relation returns a previously created relation.
func (db *DB) Relation(name string) (*Relation, bool) {
	cat := db.cur.Load().cat
	i, ok := cat.index[name]
	if !ok {
		return nil, false
	}
	return cat.rels[i], true
}

// Relations lists the relation names in creation order.
func (db *DB) Relations() []string {
	return slices.Clone(db.cur.Load().cat.order)
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// published returns the relation at the database's current version,
// built or not.
func (r *Relation) published() *cqa.Relation {
	s := r.db.cur.Load()
	return s.heads[s.cat.index[r.name]]
}

// Instance returns the relation's current (possibly inconsistent)
// instance: its version in the database's current published version.
// The result is immutable, safe to read while writers continue
// mutating the relation, and reading it builds nothing.
func (r *Relation) Instance() *Instance { return r.published().Inst }

// Insert adds a row from native Go values (string → name, integer
// types → int) and returns its tuple ID: InsertRows of one row, so a
// duplicate returns the existing ID (set semantics) without touching
// any state, and a value of the wrong kind is reported as "row 0: …".
func (r *Relation) Insert(vals ...any) (TupleID, error) {
	tup, err := relation.CoerceTuple(vals...)
	if err != nil {
		return -1, err
	}
	ids, err := r.InsertRows([]Tuple{tup})
	if len(ids) == 0 {
		return -1, err
	}
	return ids[0], err
}

// InsertRows inserts a batch of rows as one mutation: one lock
// acquisition, one write-version step and — on a durable DB — one log
// record and one durability barrier, so a large batch costs one fsync
// instead of one per row. It returns one tuple ID per input row;
// duplicates (against the relation or within the batch) resolve to
// the first occurrence's ID.
func (r *Relation) InsertRows(rows []Tuple) ([]TupleID, error) {
	ids, seq, err := r.insertRows(rows)
	if err != nil {
		return nil, err
	}
	return ids, r.db.commit(seq)
}

// insertRows validates a batch, stages the rows that will apply fresh
// and writes them (writeLocked) under the writer mutex.
func (r *Relation) insertRows(rows []Tuple) ([]TupleID, uint64, error) {
	if err := r.db.lockWriter(); err != nil {
		return nil, 0, err
	}
	defer r.mu.Unlock()
	inst := r.head.Inst
	for i, tup := range rows {
		if err := inst.TypeCheck(tup); err != nil {
			return nil, 0, fmt.Errorf("row %d: %w", i, err)
		}
	}
	// Split the batch: rows already present resolve immediately, the
	// rest dedupe against each other so the log carries exactly the
	// rows that will apply fresh. Sorting the missing rows by value,
	// ties by position, puts every repeat right behind the first row
	// equal to it.
	ids := make([]TupleID, len(rows))
	ref := make([]int, len(rows)) // per row: -1 when resolved, else the first row equal to it, then its position in fresh
	miss := make([]int, 0, len(rows))
	for i, tup := range rows {
		if id, ok := inst.Lookup(tup); ok {
			ids[i], ref[i] = id, -1
		} else {
			miss = append(miss, i)
		}
	}
	if len(miss) == 0 {
		return ids, 0, nil
	}
	order := func(a, b int) int { return slices.CompareFunc(rows[a], rows[b], relation.Value.Order) }
	slices.SortFunc(miss, func(a, b int) int { return cmp.Or(order(a, b), cmp.Compare(a, b)) })
	for k, i := range miss {
		ref[i] = i
		if k > 0 && order(miss[k-1], i) == 0 {
			ref[i] = ref[miss[k-1]]
		}
	}
	fresh := make([]Tuple, 0, len(miss)) // the rows that will apply, in apply order
	for i, first := range ref {
		switch {
		case first == i:
			ref[i] = len(fresh)
			fresh = append(fresh, rows[i])
		case first >= 0:
			ref[i] = ref[first] // first < i: already a position in fresh
		}
	}
	c, err := r.inserting(fresh)
	if err != nil {
		return nil, 0, err
	}
	seq, err := r.writeLocked(c, func() wal.Record {
		enc := make([][]string, len(fresh))
		for p, tup := range fresh {
			enc[p] = relation.EncodeRow(tup)
		}
		return wal.Record{Op: wal.OpInsert, Rel: r.name, Rows: enc}
	})
	if err != nil {
		return nil, 0, err
	}
	for i := range rows {
		if ref[i] >= 0 {
			ids[i] = c.delta.Inserts[ref[i]]
		}
	}
	return ids, seq, nil
}

// inserting and deleting stage the only ways a tuple enters or leaves
// a Relation, for the public mutations, crash recovery and a
// follower's replicated records alike, on a fork of the head's
// instance (readers keep theirs). They are strict — an insert that is
// not fresh, a delete that is not live is an error — because a record
// reaches the log exactly when it applies: the public paths filter
// before they stage, and a record that replays any other way means the
// log does not match the state it claims to rebuild. Caller holds
// r.mu.
func (r *Relation) inserting(rows []Tuple) (change, error) {
	c := change{inst: r.head.Inst.Fork(), fds: r.head.FDs}
	c.delta.Inserts = make([]TupleID, len(rows))
	for i, tup := range rows {
		id, fresh, err := c.inst.Insert(tup)
		if err == nil && !fresh {
			err = fmt.Errorf("duplicate of tuple %d", id)
		}
		if err != nil {
			return change{}, fmt.Errorf("row %d: %w", i, err)
		}
		c.delta.Inserts[i] = id
	}
	return c, nil
}

func (r *Relation) deleting(ids []TupleID) (change, error) {
	c := change{inst: r.head.Inst.Fork(), fds: r.head.FDs, delta: conflict.Delta{Deletes: ids}}
	for _, id := range ids {
		if !c.inst.Delete(id) {
			return change{}, fmt.Errorf("delete of non-live tuple %d", id)
		}
	}
	return c, nil
}

// writeLocked derives the relation's next version from a staged
// change, logs the mutation and publishes the version, in that order:
// a change whose derivation fails is refused and never logged, and
// the write-version moves only with a published version. Caller holds
// r.mu.
func (r *Relation) writeLocked(c change, mk func() wal.Record) (uint64, error) {
	next, err := r.derive(c)
	if err != nil {
		return 0, err
	}
	seq, err := r.db.logAppend(mk)
	if err != nil {
		return 0, err
	}
	r.install(next, c.prefs)
	r.db.publishLocked(seq)
	return seq, nil
}

// apply derives and installs a change that is in the log already —
// crash recovery and a follower's replicated records. A logged change
// whose preferences leave no priority (logged before such writes were
// refused, or while no read had built the relation) still applies: the
// relation falls back to unbuilt, and every read reports the
// PriorityError, as on the node that logged it. Caller holds r.mu.
func (r *Relation) apply(c change) error {
	next, err := r.derive(c)
	var perr *PriorityError
	if errors.As(err, &perr) {
		next, err = &cqa.Relation{Inst: c.inst, FDs: c.fds}, nil
	}
	if err != nil {
		return err
	}
	r.install(next, c.prefs)
	return nil
}

// derive returns the relation's version after a staged change. An
// unbuilt relation stays unbuilt. A built one derives incrementally —
// the graph delta, the priority rebased onto it, the fresh pairs
// added — unless the change is a new dependency set or a batch beyond
// a quarter of the instance, where a rebuild's better constants win; a
// preference pair counts like a tuple, since the delta adds it through
// one overlay Add and the rebuild lays it out with all the others in
// one FromRelation. An error means the change leaves no priority
// (PriorityError). Caller holds r.mu.
func (r *Relation) derive(c change) (*cqa.Relation, error) {
	st := r.head
	if st.Pri == nil {
		return &cqa.Relation{Inst: c.inst, FDs: c.fds}, nil
	}
	if c.fds != st.FDs || !r.db.incremental || len(c.delta.Inserts)+len(c.delta.Deletes)+len(c.prefs) > 64+st.Inst.Len()/4 {
		return r.build(c.inst, c.fds, append(r.prefs, c.prefs...))
	}
	g2, _, err := st.Pri.Graph().ApplyDelta(c.inst, c.delta)
	if err != nil {
		// Assertion failure in the delta plumbing: recover via rebuild.
		return r.build(c.inst, c.fds, append(r.prefs, c.prefs...))
	}
	p2 := st.Pri.Rebase(g2)
	for _, v := range c.delta.Deletes {
		p2.DropVertex(v)
	}
	// Orientation changes do not alter component membership, but they
	// dirty the per-component caches: retire each touched component ID
	// once, after all pairs are applied.
	var touched map[int]TupleID
	for _, pr := range c.prefs {
		if !g2.Adjacent(pr[0], pr[1]) {
			continue // non-conflicting (or deleted) pair: ignored, as in FromRelation
		}
		if p2.Dominates(pr[0], pr[1]) {
			continue
		}
		if err := p2.Add(pr[0], pr[1]); err != nil {
			return nil, &PriorityError{Relation: r.name, Err: err}
		}
		cid := g2.ComponentOf(pr[0])
		if _, ok := touched[cid]; !ok {
			if touched == nil {
				touched = make(map[int]TupleID)
			}
			touched[cid] = pr[0]
		}
	}
	for _, v := range touched {
		g2.Touch(v)
	}
	return &cqa.Relation{Inst: c.inst, FDs: c.fds, Pri: p2}, nil
}

// build lays out the built state of inst from scratch: the conflict
// graph of fds and the priority of the preference history prefs.
func (r *Relation) build(inst *relation.Instance, fds *fd.Set, prefs [][2]TupleID) (*cqa.Relation, error) {
	rel, err := cqa.NewRelation(inst, fds)
	if err != nil {
		return nil, fmt.Errorf("prefcqa: relation %s: %w", r.name, err)
	}
	pri, err := priority.FromRelation(rel.Pri.Graph(), prefs)
	if err != nil {
		return nil, &PriorityError{Relation: r.name, Err: err}
	}
	rel.Pri = pri
	return rel, nil
}

// install makes next the relation's head and records the change's
// fresh preference pairs. It also prunes the history once it doubles
// since the last prune: pairs touching tombstoned tuples can never
// matter again (IDs are never reused), so dropping them keeps r.prefs
// — and the cost of any future rebuild — proportional to the live
// instance instead of the total mutation history. Caller holds r.mu.
func (r *Relation) install(next *cqa.Relation, prefs [][2]TupleID) {
	r.head = next
	for _, p := range prefs {
		r.prefSeen[keyOf(p)] = struct{}{}
	}
	r.prefs = append(r.prefs, prefs...)
	if len(r.prefs) > 64 && len(r.prefs) >= r.prefsPruneAt {
		kept := r.prefs[:0]
		for _, p := range r.prefs {
			if next.Inst.Live(p[0]) && next.Inst.Live(p[1]) {
				kept = append(kept, p)
			} else {
				delete(r.prefSeen, keyOf(p))
			}
		}
		r.prefs = kept
		r.prefsPruneAt = 2 * len(kept)
	}
}

// PriorityError reports preferences that do not form a priority of
// the relation — an acyclic orientation of its conflicts (Definition 2
// of the paper): a conflict oriented both ways, or a cycle. On a
// relation a read has built, the Prefer batch or AddFD that would
// cause it is refused whole, and nothing is logged. On a relation no
// read has built yet, the first read that builds it reports it, and so
// does every read after.
type PriorityError struct {
	Relation string
	Err      error // the priority's own report
}

func (e *PriorityError) Error() string {
	return fmt.Sprintf("prefcqa: relation %s: %v", e.Relation, e.Err)
}

func (e *PriorityError) Unwrap() error { return e.Err }

// MustInsert is Insert that panics on error, for fixtures.
func (r *Relation) MustInsert(vals ...any) TupleID {
	id, err := r.Insert(vals...)
	if err != nil {
		panic(err)
	}
	return id
}

// Delete tombstones the tuple with the given ID and reports whether
// it was live: DeleteIDs of one ID.
func (r *Relation) Delete(id TupleID) (bool, error) {
	n, err := r.DeleteIDs([]TupleID{id})
	return n == 1, err
}

// DeleteIDs tombstones a batch of tuples as one mutation: one lock
// acquisition, one write-version step and — on a durable DB — one log
// record and one durability barrier, however many IDs. It returns how
// many were live; IDs that are not (never assigned, already deleted,
// repeated in the batch) are skipped, and a batch with none changes
// nothing. Other tuple IDs are unchanged; preferences touching a
// deleted tuple are dropped from the built priority. The built state
// is patched, not rebuilt: cost is proportional to the tuples' conflict
// components. The error is nil on an in-memory DB; on a durable DB it
// reports a failed log write or durability barrier.
func (r *Relation) DeleteIDs(ids []TupleID) (int, error) {
	n, seq, err := r.deleteIDs(ids)
	if err != nil {
		return 0, err
	}
	return n, r.db.commit(seq)
}

func (r *Relation) deleteIDs(ids []TupleID) (int, uint64, error) {
	if err := r.db.lockWriter(); err != nil {
		return 0, 0, err
	}
	defer r.mu.Unlock()
	// Only live IDs, once each, reach the log.
	live := make([]TupleID, 0, len(ids))
	seen := make(map[TupleID]bool, len(ids))
	for _, id := range ids {
		if r.head.Inst.Live(id) && !seen[id] {
			seen[id] = true
			live = append(live, id)
		}
	}
	if len(live) == 0 {
		return 0, 0, nil
	}
	c, err := r.deleting(live)
	if err != nil {
		return 0, 0, err
	}
	seq, err := r.writeLocked(c, func() wal.Record {
		return wal.Record{Op: wal.OpDelete, Rel: r.name, IDs: live}
	})
	return len(live), seq, err
}

// AddFD declares a functional dependency, e.g. "Dept -> Name, Salary".
// Unlike tuple-level mutations, adding a dependency rebuilds the
// conflict graph from scratch, once a read has built the relation. A
// dependency under which the recorded preferences would orient a
// conflict both ways or make a cycle is refused (PriorityError).
func (r *Relation) AddFD(spec string) error {
	seq, err := r.addFD(spec)
	if err != nil {
		return err
	}
	return r.db.commit(seq)
}

func (r *Relation) addFD(spec string) (uint64, error) {
	if err := r.db.lockWriter(); err != nil {
		return 0, err
	}
	defer r.mu.Unlock()
	c, f, err := r.addingFD(spec)
	if err != nil {
		return 0, err
	}
	// Log the normalized rendering, not the raw spec: FD.String
	// round-trips through fd.Parse on replay.
	return r.writeLocked(c, func() wal.Record {
		return wal.Record{Op: wal.OpFD, Rel: r.name, FD: f.String()}
	})
}

// addingFD parses spec and stages the dependency set extended by it.
// The set is replaced rather than mutated: the published version keeps
// referencing the old one. Caller holds r.mu.
func (r *Relation) addingFD(spec string) (change, fd.FD, error) {
	f, err := fd.Parse(r.schema, spec)
	if err != nil {
		return change{}, f, err
	}
	nfds, err := fd.NewSet(r.schema, append(r.head.FDs.All(), f)...)
	if err != nil {
		return change{}, f, err
	}
	return change{inst: r.head.Inst, fds: nfds}, f, nil
}

// FDs renders the declared dependencies.
func (r *Relation) FDs() string { return r.published().FDs.String() }

// Prefer records that tuple x should win its conflict against tuple
// y (x ≻ y). Following Definition 2, pairs of non-conflicting tuples
// are accepted and ignored. Duplicate pairs are recorded once. A pair
// that contradicts the recorded preferences (the reverse orientation,
// or a cycle) is refused once a read has built the relation; see
// PriorityError.
func (r *Relation) Prefer(x, y TupleID) error {
	return r.PreferPairs([][2]TupleID{{x, y}})
}

// PreferPairs records a batch of preferences (each pair {x, y} meaning
// x ≻ y, as in Prefer) as one mutation: one lock acquisition, one
// write-version step and — on a durable DB — one log record and one
// durability barrier. Every pair is validated before any is logged or
// applied, so a batch naming a tuple ID that is not live, or one that
// would leave no priority on a built relation, is rejected whole and
// changes nothing.
func (r *Relation) PreferPairs(pairs [][2]TupleID) error {
	seq, err := r.preferPairs(pairs, true)
	if err != nil {
		return err
	}
	return r.db.commit(seq)
}

// preferPairs validates a batch of preference pairs and writes the
// fresh ones (writeLocked) under the writer mutex. With mustLive set, a
// pair touching a non-live tuple is an error (the Prefer contract);
// otherwise such pairs are skipped (PreferByRank derives pairs from a
// version a concurrent writer may since have deleted from). Only pairs
// that are both live and fresh reach the log — a logged pair is
// exactly an applied pair, which is what makes strict replay possible.
func (r *Relation) preferPairs(pairs [][2]TupleID, mustLive bool) (uint64, error) {
	if err := r.db.lockWriter(); err != nil {
		return 0, err
	}
	defer r.mu.Unlock()
	inst := r.head.Inst
	fresh := make([][2]TupleID, 0, len(pairs))
	batchSeen := make(map[prefKey]struct{}, len(pairs))
	for _, p := range pairs {
		if !inst.Live(p[0]) || !inst.Live(p[1]) {
			if mustLive {
				return 0, fmt.Errorf("prefcqa: preference on unknown tuple IDs (%d, %d)", p[0], p[1])
			}
			continue
		}
		if _, dup := batchSeen[keyOf(p)]; !dup && !r.preferred(p) {
			batchSeen[keyOf(p)] = struct{}{}
			fresh = append(fresh, p)
		}
	}
	if len(fresh) == 0 {
		return 0, nil
	}
	return r.writeLocked(change{inst: inst, fds: r.head.FDs, prefs: fresh}, func() wal.Record {
		return wal.Record{Op: wal.OpPrefer, Rel: r.name, Pairs: fresh}
	})
}

// prefKey is a preference pair as a key of prefSeen: tuple IDs fit in
// int32, as the partitions and the CSR rows already assume.
type prefKey [2]int32

func keyOf(p [2]TupleID) prefKey { return prefKey{int32(p[0]), int32(p[1])} }

// preferred reports whether the pair is in the preference history.
// Caller holds r.mu.
func (r *Relation) preferred(p [2]TupleID) bool {
	_, ok := r.prefSeen[keyOf(p)]
	return ok
}

// PreferByRank derives preferences from a rank function (smaller rank
// = more trusted, e.g. source reliability or recency): every conflict
// between tuples of different ranks is oriented toward the smaller
// rank. Rank-derived preferences are recorded alongside any explicit
// Prefer pairs (duplicates are dropped, so PreferByRank is
// idempotent); a batch that contradicts them is refused whole
// (PriorityError).
//
// The conflicts are those of the database's current version, built
// first if no read has built it. The rank callback runs without any
// lock held, so it may read the relation (Instance, ExplainTuple, ...).
// Pairs whose tuples are deleted by a concurrent writer before the
// pairs are recorded are skipped (a preference on a tombstoned tuple
// can never matter again — IDs are not reused).
func (r *Relation) PreferByRank(rank func(TupleID) int) error {
	built, err := r.db.built(r.name)
	if err != nil {
		return err
	}
	edges := built.Pri.Graph().Edges()
	pairs := make([][2]TupleID, 0, len(edges))
	for _, e := range edges {
		ra, rb := rank(e.A), rank(e.B)
		switch {
		case ra < rb:
			pairs = append(pairs, [2]TupleID{e.A, e.B})
		case rb < ra:
			pairs = append(pairs, [2]TupleID{e.B, e.A})
		}
	}
	seq, err := r.preferPairs(pairs, false)
	if err != nil {
		return err
	}
	return r.db.commit(seq)
}

// built returns a relation's built state at the database's current
// version (see Snapshot).
func (db *DB) built(name string) (*cqa.Relation, error) {
	s, err := db.Snapshot()
	if err != nil {
		return nil, err
	}
	return s.rel(name)
}

// Graph returns the relation's conflict graph at the database's
// current version.
func (r *Relation) Graph() (*conflict.Graph, error) {
	built, err := r.db.built(r.name)
	if err != nil {
		return nil, err
	}
	return built.Pri.Graph(), nil
}

// Conflicts returns the number of conflicting tuple pairs.
func (r *Relation) Conflicts() (int, error) {
	g, err := r.Graph()
	if err != nil {
		return 0, err
	}
	return g.NumEdges(), nil
}

// Consistent reports whether the relation satisfies its dependencies.
func (r *Relation) Consistent() (bool, error) {
	n, err := r.Conflicts()
	return n == 0, err
}

// RelationStats describes a relation at one version: its instance
// version, live tuples, conflicts and conflict-graph components.
type RelationStats struct {
	Version    uint64
	Tuples     int
	Conflicts  int
	Components int
}

// RelationStats describes every relation of the database's current
// version that a read has built, keyed by name. It builds nothing and
// takes no lock: a relation no read has built yet is left out.
func (db *DB) RelationStats() map[string]RelationStats {
	s := db.cur.Load()
	out := make(map[string]RelationStats, len(s.heads))
	for i, rel := range s.heads {
		if rel.Pri == nil {
			continue
		}
		g := rel.Pri.Graph()
		out[s.cat.order[i]] = RelationStats{
			Version:    rel.Inst.Version(),
			Tuples:     rel.Inst.Len(),
			Conflicts:  g.NumEdges(),
			Components: g.NumComponents(),
		}
	}
	return out
}

// EngineStats returns the evaluation engine's cumulative choice-set
// cache hit and miss counts — the numbers behind the serving layer's /v1/stats endpoint.
func (db *DB) EngineStats() (hits, misses int64) {
	return db.engine.CacheStats()
}

// QueryStats returns the cumulative query path counters: how many
// open queries took their candidates from the spine and pins alone vs
// ranged a free variable over the active domain, which vectorized
// executor (generic join, Yannakakis, greedy) ran the former's spines,
// how many closed
// verifications took the component-pruned repair walk vs the full
// whole-database enumeration, how many of the pruned ones were
// decided on a bound of the preferred repairs without a walk, and how
// many query texts the analysed-query cache answered (hits) or had to
// parse, validate and analyse (misses). Snapshots taken from this DB
// feed the same counters.
func (db *DB) QueryStats() cqa.EvalStatsSnapshot {
	return db.stats.Snapshot()
}

// Query evaluates a closed first-order query under the family's
// preferred-repair semantics and returns true, false or undetermined.
func (db *DB) Query(f Family, src string) (Answer, error) {
	s, err := db.Snapshot()
	if err != nil {
		return 0, err
	}
	return s.Query(f, src)
}

// Certain reports whether true is the f-consistent answer to the
// closed query.
func (db *DB) Certain(f Family, src string) (bool, error) {
	s, err := db.Snapshot()
	if err != nil {
		return false, err
	}
	return s.Certain(f, src)
}

// Possible reports whether the closed query holds in at least one
// preferred repair of the family (brave semantics).
func (db *DB) Possible(f Family, src string) (bool, error) {
	s, err := db.Snapshot()
	if err != nil {
		return false, err
	}
	return s.Possible(f, src)
}

// QueryOpen evaluates an open query (free variables allowed) and
// returns its certain answers: the bindings under which the query
// holds in every preferred repair.
func (db *DB) QueryOpen(f Family, src string) ([]Binding, error) {
	s, err := db.Snapshot()
	if err != nil {
		return nil, err
	}
	return s.QueryOpen(f, src)
}

// Repairs materializes the family's preferred repairs of one relation
// as instances. Use CountRepairs first — the result can be
// exponential.
func (db *DB) Repairs(f Family, rel string) ([]*Instance, error) {
	s, err := db.Snapshot()
	if err != nil {
		return nil, err
	}
	return s.Repairs(f, rel)
}

// CountRepairs returns the number of preferred repairs of a relation.
func (db *DB) CountRepairs(f Family, rel string) (int64, error) {
	s, err := db.Snapshot()
	if err != nil {
		return 0, err
	}
	return s.CountRepairs(f, rel)
}

// IsPreferredRepair checks whether the given tuple subset of a
// relation is a preferred repair of the family (the repair-checking
// problem of §4.1).
func (db *DB) IsPreferredRepair(f Family, rel string, ids []TupleID) (bool, error) {
	built, err := db.built(rel)
	if err != nil {
		return false, err
	}
	return core.Check(f, built.Pri, bitset.FromSlice(ids)), nil
}

// Clean runs Algorithm 1 on the relation: winnow-driven cleaning
// under the recorded preferences, deterministic choice order. The
// result is always a single repair; with total preferences it is the
// unique one (Proposition 1).
func (db *DB) Clean(rel string) (*Instance, error) {
	s, err := db.Snapshot()
	if err != nil {
		return nil, err
	}
	return s.Clean(rel)
}

// CleanNaive runs the naive cleaning baseline the paper argues
// against (§1, §5 [14]): conflicts without a recorded preference drop
// BOTH tuples. The result is consistent but in general not maximal —
// disjunctive information is lost. Provided for comparison with
// Clean and with preferred consistent query answering.
func (db *DB) CleanNaive(rel string) (*Instance, error) {
	built, err := db.built(rel)
	if err != nil {
		return nil, err
	}
	return built.Inst.Subset(clean.Naive(built.Pri)), nil
}

// CheckAxioms probes properties P1-P4 for the family on the
// relation's current priority.
func (db *DB) CheckAxioms(f Family, rel string) (AxiomReport, error) {
	built, err := db.built(rel)
	if err != nil {
		return AxiomReport{}, err
	}
	return axioms.Check(axioms.FromCore(f), built.Pri, axioms.Options{}), nil
}

// ConflictGraphDOT renders the relation's conflict graph in Graphviz
// format.
func (db *DB) ConflictGraphDOT(rel string) (string, error) {
	built, err := db.built(rel)
	if err != nil {
		return "", err
	}
	return built.Pri.Graph().DOT(), nil
}
