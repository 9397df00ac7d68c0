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
	"fmt"
	"io"
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
// Mutations (Insert, Delete, Prefer) are maintained incrementally:
// instead of rebuilding the conflict graph, priority and component
// index, the next read applies the pending batch as a delta — cost
// proportional to the touched components, not the instance — and
// publishes a fresh immutable version with an atomic swap. Tuple
// mutations and queries on existing relations are therefore safe to
// run concurrently; readers always see a consistent published
// version, and Snapshot pins one for repeated reads. Creating
// relations (CreateRelation, AddInstance) takes the snapshot gate's
// write side, and every lookup of a relation by name its read side, so
// relations may be created while others are in use.
type DB struct {
	rels   map[string]*Relation
	order  []string
	engine *core.Engine
	snapMu sync.RWMutex // see Relation.snap

	// schemaEpoch counts relation creations; like rels and order it is
	// guarded by snapMu. queries keeps the analysed query texts of the
	// current epoch (cqa.QueryCache) for every snapshot's reads.
	schemaEpoch uint64
	queries     cqa.QueryCache

	// log is the write-ahead log of a durable DB (see Open); nil on an
	// in-memory DB. ver is the in-memory write-version counter; on a
	// durable DB the log's record sequence is the write-version. See
	// WriteVersion.
	log      *wal.Log
	ver      atomic.Uint64
	walOpts  wal.Options
	ckptBusy atomic.Bool // gates automatic checkpoints to one at a time

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
// (default on). When disabled, every mutation invalidates the built
// state and the next read rebuilds it from scratch — the path an
// oversized batch takes anyway, and the reference the mutation tests
// and benchmarks compare against.
func withIncremental(on bool) Option {
	return func(db *DB) { db.incremental = on }
}

// New returns an empty database. With no options the evaluation
// engine uses a GOMAXPROCS-sized worker pool with memoization on, and
// mutations are maintained incrementally.
func New(opts ...Option) *DB {
	db := &DB{rels: make(map[string]*Relation), parallelism: 0, cache: true, incremental: true, stats: &cqa.EvalStats{}}
	db.epoch.Store(1)
	for _, opt := range opts {
		opt(db)
	}
	db.engine = core.NewEngine(core.WithWorkers(db.parallelism), core.WithMemo(db.cache))
	return db
}

// Relation is one relation of the database together with its
// dependencies and preferences.
//
// The built evaluation state (conflict graph, priority, component
// index) is versioned: reads load the latest published version from
// an atomic pointer, mutations accumulate a pending delta that the
// next read applies and publishes. Published versions are immutable,
// so readers never block writers and a Snapshot stays consistent
// indefinitely.
type Relation struct {
	// snap is the owning DB's snapshot gate: mutators hold its read
	// side, DB.Snapshot the write side, making a snapshot a true
	// point-in-time cut across all relations. Acquired before mu.
	snap *sync.RWMutex
	db   *DB
	name string

	mu           sync.Mutex // guards all writer state below
	inst         *relation.Instance
	fds          *fd.Set
	prefs        [][2]TupleID
	prefSeen     map[prefKey]struct{}
	prefsPruneAt int  // next len(prefs) at which dead pairs are pruned
	forked       bool // inst is a private fork ahead of the published version
	pend         pendingDelta
	incremental  bool

	cur    atomic.Pointer[cqa.Relation] // latest published built state
	dirty  atomic.Bool                  // pending mutations since the last publish
	counts *core.CountCache             // per-component repair counts, era-keyed
}

// pendingDelta is the batch of mutations since the last publish.
// A tuple inserted and deleted within one batch appears in both
// lists, inserts first — the graph delta wires it in and back out.
type pendingDelta struct {
	inserts []TupleID
	deletes []TupleID
	prefs   [][2]TupleID
	rebuild bool // fall back to a full rebuild (AddFD, failed delta)
}

func (p *pendingDelta) dirty() bool {
	return p.rebuild || len(p.inserts)+len(p.deletes)+len(p.prefs) > 0
}

// freshRelation is the one constructor of a Relation: the instance's
// schema name must be unused, and the relation starts with an empty
// dependency set. register makes it visible. Caller holds db.snapMu.
func (db *DB) freshRelation(inst *relation.Instance) (*Relation, error) {
	name := inst.Schema().Name()
	if _, dup := db.rels[name]; dup {
		return nil, fmt.Errorf("prefcqa: relation %q already exists", name)
	}
	fds, err := fd.NewSet(inst.Schema())
	if err != nil {
		return nil, err
	}
	return &Relation{
		snap: &db.snapMu,
		db:   db,
		name: name,
		inst: inst, fds: fds,
		prefSeen:    make(map[prefKey]struct{}),
		incremental: db.incremental,
		counts:      core.NewCountCache(),
	}, nil
}

func (db *DB) register(r *Relation) {
	db.rels[r.name] = r
	db.order = append(db.order, r.name)
	db.schemaEpoch++
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
// yet) under its schema name. On a durable DB the instance's whole
// tuple universe — including tombstones, which anchor the ID
// assignment — is logged as one creation record.
func (db *DB) AddInstance(inst *Instance) (*Relation, error) {
	r, seq, err := db.addInstance(inst)
	if err != nil {
		return nil, err
	}
	return r, db.commit(seq)
}

func (db *DB) addInstance(inst *Instance) (*Relation, uint64, error) {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
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
	return r, seq, nil
}

// Relation returns a previously created relation.
func (db *DB) Relation(name string) (*Relation, bool) {
	r, err := db.relation(name)
	return r, err == nil
}

// relation looks a relation up under the read side of the snapshot
// gate, which register writes the registry under. The caller must not
// hold snapMu: a second RLock queued behind a waiting Lock deadlocks.
func (db *DB) relation(name string) (*Relation, error) {
	db.snapMu.RLock()
	r, ok := db.rels[name]
	db.snapMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("prefcqa: unknown relation %q", name)
	}
	return r, nil
}

// Relations lists the relation names in creation order.
func (db *DB) Relations() []string {
	db.snapMu.RLock()
	defer db.snapMu.RUnlock()
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inst.Schema()
}

// Instance returns the relation's current (possibly inconsistent)
// instance: the latest published version, after folding in any
// pending mutations. The result is an immutable version, safe to
// read while writers continue mutating the relation. If the built
// state cannot be constructed (e.g. contradictory preferences), the
// writer's working instance is returned instead; that fallback is
// only safe without concurrent mutation.
func (r *Relation) Instance() *Instance {
	if built, err := r.build(); err == nil {
		return built.Inst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inst
}

// beginMutate forks the instance away from the published version on
// the first mutation of a batch, so readers of the published version
// keep a consistent view. Caller holds r.mu.
func (r *Relation) beginMutate() {
	if r.cur.Load() != nil && !r.forked {
		r.inst = r.inst.Fork()
		r.forked = true
	}
}

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
// record, written before anything is applied, and one durability
// barrier, so a large batch costs one fsync instead of one per row. It
// returns one tuple ID per input row; duplicates (against the relation
// or within the batch) resolve to the first occurrence's ID.
func (r *Relation) InsertRows(rows []Tuple) ([]TupleID, error) {
	ids, seq, err := r.insertRows(rows)
	if err != nil {
		return nil, err
	}
	return ids, r.db.commit(seq)
}

// insertRows validates, logs and applies a batch under the locks — in
// that order, so a logged row is always an applied row.
func (r *Relation) insertRows(rows []Tuple) ([]TupleID, uint64, error) {
	r.snap.RLock()
	defer r.snap.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, tup := range rows {
		if err := r.inst.TypeCheck(tup); err != nil {
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
		if id, ok := r.inst.Lookup(tup); ok {
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
	seq, err := r.db.logAppend(func() wal.Record {
		enc := make([][]string, len(fresh))
		for p, tup := range fresh {
			enc[p] = relation.EncodeRow(tup)
		}
		return wal.Record{Op: wal.OpInsert, Rel: r.name, Rows: enc}
	})
	if err != nil {
		return nil, 0, err
	}
	freshIDs, err := r.applyInserts(fresh)
	if err != nil {
		return nil, 0, err
	}
	for i := range rows {
		if ref[i] >= 0 {
			ids[i] = freshIDs[ref[i]]
		}
	}
	return ids, seq, nil
}

// applyInserts and applyDeletes are the only place a tuple enters or
// leaves a Relation, for the public mutations, crash recovery and a
// follower's replicated records alike: fork away from the published
// version (readers keep theirs), change the instance, track the change
// for the next read's delta. They are strict — an insert that is not
// fresh, a delete that is not live is an error — because a record
// reaches the log exactly when it applies: the public paths filter
// before they log, and a record that replays any other way means the
// log does not match the state it claims to rebuild. Caller holds
// r.mu.
func (r *Relation) applyInserts(rows []Tuple) ([]TupleID, error) {
	r.beginMutate()
	r.dirty.Store(true)
	ids := make([]TupleID, len(rows))
	for i, tup := range rows {
		id, fresh, err := r.inst.Insert(tup)
		if err == nil && !fresh {
			err = fmt.Errorf("duplicate of tuple %d", id)
		}
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		ids[i] = id
		if r.cur.Load() != nil {
			r.pend.inserts = append(r.pend.inserts, id)
		}
	}
	return ids, nil
}

func (r *Relation) applyDeletes(ids []TupleID) error {
	r.beginMutate()
	r.dirty.Store(true)
	for _, id := range ids {
		if !r.inst.Live(id) {
			return fmt.Errorf("delete of non-live tuple %d", id)
		}
		r.inst.Delete(id)
		if r.cur.Load() != nil {
			r.pend.deletes = append(r.pend.deletes, id)
		}
	}
	return nil
}

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
	r.snap.RLock()
	defer r.snap.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	// Only live IDs, once each, reach the log.
	live := make([]TupleID, 0, len(ids))
	seen := make(map[TupleID]bool, len(ids))
	for _, id := range ids {
		if r.inst.Live(id) && !seen[id] {
			seen[id] = true
			live = append(live, id)
		}
	}
	if len(live) == 0 {
		return 0, 0, nil
	}
	seq, err := r.db.logAppend(func() wal.Record {
		return wal.Record{Op: wal.OpDelete, Rel: r.name, IDs: live}
	})
	if err != nil {
		return 0, 0, err
	}
	return len(live), seq, r.applyDeletes(live)
}

// AddFD declares a functional dependency, e.g. "Dept -> Name, Salary".
// Unlike tuple-level mutations, adding a dependency rebuilds the
// conflict graph from scratch on the next read.
func (r *Relation) AddFD(spec string) error {
	r.snap.RLock()
	seq, err := r.applyFD(spec, true)
	r.snap.RUnlock()
	if err != nil {
		return err
	}
	return r.db.commit(seq)
}

// applyFD parses spec, extends the dependency set by it and installs
// the result, logging in between when live — replay (recovery, a
// follower) applies a record that is in the log already.
func (r *Relation) applyFD(spec string, live bool) (seq uint64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := fd.Parse(r.inst.Schema(), spec)
	if err != nil {
		return 0, err
	}
	// Replace rather than mutate the dependency set: the published
	// version keeps referencing the old one.
	nfds, err := fd.NewSet(r.inst.Schema(), append(r.fds.All(), f)...)
	if err != nil {
		return 0, err
	}
	if live {
		// Log the normalized rendering, not the raw spec: FD.String
		// round-trips through fd.Parse on replay.
		seq, err = r.db.logAppend(func() wal.Record {
			return wal.Record{Op: wal.OpFD, Rel: r.name, FD: f.String()}
		})
		if err != nil {
			return 0, err
		}
	}
	r.fds = nfds
	r.pend.rebuild = true
	r.dirty.Store(true)
	return seq, nil
}

// FDs renders the declared dependencies.
func (r *Relation) FDs() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fds.String()
}

// Prefer records that tuple x should win its conflict against tuple
// y (x ≻ y). Following Definition 2, pairs of non-conflicting tuples
// are accepted and ignored; contradictory or cyclic preferences are
// reported when the priority is built. Duplicate pairs are recorded
// once.
func (r *Relation) Prefer(x, y TupleID) error {
	return r.PreferPairs([][2]TupleID{{x, y}})
}

// PreferPairs records a batch of preferences (each pair {x, y} meaning
// x ≻ y, as in Prefer) as one mutation: one lock acquisition, one
// write-version step and — on a durable DB — one log record and one
// durability barrier. Every pair is validated before any is logged or
// applied, so a batch naming a tuple ID that is not live is rejected
// whole and changes nothing.
func (r *Relation) PreferPairs(pairs [][2]TupleID) error {
	seq, err := r.preferPairs(pairs, true)
	if err != nil {
		return err
	}
	return r.db.commit(seq)
}

// preferPairs validates, logs and applies a batch of preference
// pairs under the locks. With mustLive set, a pair touching a
// non-live tuple is an error (the Prefer contract); otherwise such
// pairs are skipped (PreferByRank derives pairs from a built state a
// concurrent writer may since have deleted from). Only pairs that are
// both live and fresh reach the log — a logged pair is exactly an
// applied pair, which is what makes strict replay possible.
func (r *Relation) preferPairs(pairs [][2]TupleID, mustLive bool) (uint64, error) {
	r.snap.RLock()
	defer r.snap.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	fresh := make([][2]TupleID, 0, len(pairs))
	batchSeen := make(map[prefKey]struct{}, len(pairs))
	for _, p := range pairs {
		if !r.inst.Live(p[0]) || !r.inst.Live(p[1]) {
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
	seq, err := r.db.logAppend(func() wal.Record {
		return wal.Record{Op: wal.OpPrefer, Rel: r.name, Pairs: fresh}
	})
	if err != nil {
		return 0, err
	}
	for _, p := range fresh {
		r.preferLocked(p[0], p[1])
	}
	return seq, nil
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

// preferLocked records x ≻ y, deduplicating. Caller holds r.mu.
func (r *Relation) preferLocked(x, y TupleID) {
	pair := [2]TupleID{x, y}
	if r.preferred(pair) {
		return
	}
	r.prefSeen[keyOf(pair)] = struct{}{}
	r.prefs = append(r.prefs, pair)
	if r.cur.Load() != nil {
		r.pend.prefs = append(r.pend.prefs, pair)
	}
	r.dirty.Store(true)
}

// PreferByRank derives preferences from a rank function (smaller rank
// = more trusted, e.g. source reliability or recency): every conflict
// between tuples of different ranks is oriented toward the smaller
// rank. Rank-derived preferences are recorded alongside any explicit
// Prefer pairs (duplicates are dropped, so PreferByRank is
// idempotent); a contradiction between the two surfaces as an error
// on the next query or repair operation.
//
// The rank callback runs without the relation lock held, so it may
// read the relation (Instance, ExplainTuple, ...). Conflicts are
// taken from the state observed on entry; pairs whose tuples are
// deleted by a concurrent writer before the pairs are recorded are
// skipped (a preference on a tombstoned tuple can never matter again
// — IDs are not reused).
func (r *Relation) PreferByRank(rank func(TupleID) int) error {
	r.mu.Lock()
	built, err := r.materializeLocked()
	if err != nil {
		r.mu.Unlock()
		return err
	}
	edges := built.Pri.Graph().Edges()
	r.mu.Unlock()
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

// build returns the up-to-date built state, applying any pending
// delta (or rebuilding, when required) and publishing the result.
// With nothing pending the fast path is two atomic loads and no lock,
// so readers of a clean relation never contend with each other or
// with a writer mid-batch — they simply observe the latest published
// version.
func (r *Relation) build() (*cqa.Relation, error) {
	// Order matters: publishLocked stores cur before clearing dirty,
	// so observing dirty == false guarantees the subsequent cur load
	// sees (at least) the version that batch produced — a goroutine
	// always reads its own completed writes.
	if !r.dirty.Load() {
		if st := r.cur.Load(); st != nil {
			return st, nil
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.materializeLocked()
}

// incrementalTooBig decides when a pending batch is too large for
// delta application: beyond a quarter of the instance a rebuild's
// better constants win. A preference pair counts like a tuple: the
// delta adds it through one overlay Add, the rebuild lays it out with
// all the others in one FromRelation.
func (r *Relation) incrementalTooBig(st *cqa.Relation) bool {
	return len(r.pend.inserts)+len(r.pend.deletes)+len(r.pend.prefs) > 64+st.Inst.Len()/4
}

// materializeLocked applies the pending mutation batch to the latest
// published version — delta maintenance when possible, full rebuild
// when demanded (first build, AddFD, oversized batch) — and publishes
// the new version. Caller holds r.mu. On error the pending batch is
// retained and the published version stays; subsequent reads retry
// and report the same error, mirroring the former rebuild-on-read
// semantics.
func (r *Relation) materializeLocked() (*cqa.Relation, error) {
	st := r.cur.Load()
	if st != nil && !r.pend.dirty() {
		return st, nil
	}
	if st == nil || r.pend.rebuild || !r.incremental || r.incrementalTooBig(st) {
		return r.rebuildLocked()
	}
	g2, _, err := st.Pri.Graph().ApplyDelta(r.inst, conflict.Delta{Inserts: r.pend.inserts, Deletes: r.pend.deletes})
	if err != nil {
		// Assertion failure in the delta plumbing: recover via rebuild.
		return r.rebuildLocked()
	}
	p2 := st.Pri.Rebase(g2)
	for _, v := range r.pend.deletes {
		p2.DropVertex(v)
	}
	// Orientation changes do not alter component membership, but they
	// dirty the per-component caches: retire each touched component ID
	// once, after all pairs are applied.
	var touched map[int]TupleID
	for _, pr := range r.pend.prefs {
		if !g2.Adjacent(pr[0], pr[1]) {
			continue // non-conflicting (or deleted) pair: ignored, as in FromRelation
		}
		if p2.Dominates(pr[0], pr[1]) {
			continue
		}
		if err := p2.Add(pr[0], pr[1]); err != nil {
			// The failed batch has already mutated the writer-side
			// partner index; route the (equally failing) retries
			// through the rebuild path, which starts a fresh one.
			r.pend.rebuild = true
			return nil, err
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
	newSt := &cqa.Relation{Inst: r.inst, FDs: st.FDs, Pri: p2}
	r.publishLocked(newSt)
	return newSt, nil
}

// rebuildLocked reconstructs the built state from scratch on the
// current instance and publishes it.
func (r *Relation) rebuildLocked() (*cqa.Relation, error) {
	rel, err := cqa.NewRelation(r.inst, r.fds)
	if err != nil {
		return nil, err
	}
	pri, err := priority.FromRelation(rel.Pri.Graph(), r.prefs)
	if err != nil {
		return nil, err
	}
	rel.Pri = pri
	r.publishLocked(rel)
	return rel, nil
}

// publishLocked swaps in the new version and clears the batch. It
// also prunes the recorded preference history once it doubles since
// the last prune: pairs touching tombstoned tuples can never matter
// again (IDs are never reused), so dropping them keeps r.prefs — and
// the cost of any future full rebuild — proportional to the live
// instance instead of the total mutation history.
func (r *Relation) publishLocked(st *cqa.Relation) {
	r.cur.Store(st)
	r.pend = pendingDelta{}
	r.forked = false
	r.dirty.Store(false)
	if len(r.prefs) > 64 && len(r.prefs) >= r.prefsPruneAt {
		kept := r.prefs[:0]
		for _, p := range r.prefs {
			if r.inst.Live(p[0]) && r.inst.Live(p[1]) {
				kept = append(kept, p)
			} else {
				delete(r.prefSeen, keyOf(p))
			}
		}
		r.prefs = kept
		r.prefsPruneAt = 2 * len(kept)
	}
}

// Graph returns the relation's conflict graph (built on demand).
func (r *Relation) Graph() (*conflict.Graph, error) {
	built, err := r.build()
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

// EngineStats returns the evaluation engine's cumulative choice-set
// cache hit and miss counts — the numbers behind the serving layer's /v1/stats endpoint.
func (db *DB) EngineStats() (hits, misses int64) {
	return db.engine.CacheStats()
}

// QueryStats returns the cumulative query path counters: how many
// open queries were answered by direct spine enumeration vs
// active-domain substitution, which vectorized executor (generic
// join, Yannakakis, greedy) ran the direct spines, how many closed
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
	r, err := db.relation(rel)
	if err != nil {
		return false, err
	}
	built, err := r.build()
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
	r, err := db.relation(rel)
	if err != nil {
		return nil, err
	}
	built, err := r.build()
	if err != nil {
		return nil, err
	}
	return built.Inst.Subset(clean.Naive(built.Pri)), nil
}

// CheckAxioms probes properties P1-P4 for the family on the
// relation's current priority.
func (db *DB) CheckAxioms(f Family, rel string) (AxiomReport, error) {
	r, err := db.relation(rel)
	if err != nil {
		return AxiomReport{}, err
	}
	built, err := r.build()
	if err != nil {
		return AxiomReport{}, err
	}
	return axioms.Check(axioms.FromCore(f), built.Pri, axioms.Options{}), nil
}

// ConflictGraphDOT renders the relation's conflict graph in Graphviz
// format.
func (db *DB) ConflictGraphDOT(rel string) (string, error) {
	r, err := db.relation(rel)
	if err != nil {
		return "", err
	}
	g, err := r.Graph()
	if err != nil {
		return "", err
	}
	return g.DOT(), nil
}
