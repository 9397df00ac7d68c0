package relation

import (
	"fmt"
	"sort"
	"strings"

	"prefcqa/internal/bitset"
)

// Tuple is one row of a relation. Tuples are compared by value; the
// instance enforces set semantics.
type Tuple []Value

// TupleID identifies a tuple inside one Instance. IDs are dense,
// starting at 0, in insertion order; they never change and are never
// reused — deleting a tuple tombstones its ID, and re-inserting an
// equal tuple later assigns a fresh ID.
type TupleID = int

// String renders "(v1, v2, ...)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Instance is a finite set of tuples over one schema. Insertion
// assigns dense TupleIDs; duplicate inserts return the existing ID.
// Delete tombstones a tuple without disturbing the IDs of the others,
// so downstream structures (conflict graphs, priorities) can be
// patched instead of rebuilt.
//
// An Instance carries a monotone version counter (Version) that every
// successful mutation bumps, and supports cheap structural-sharing
// snapshots via Fork: the fork shares the tuple storage, the index
// and the tombstones with its parent, and the parent is frozen
// — all later mutations must go through the fork. This is the storage
// half of the engine's snapshot-isolated mutation model: published
// instance versions are immutable, and a writer advances the database
// by forking the latest version.
//
// Storage is columnar (column.go): one typed, append-only array per
// attribute, indexed by TupleID and shared along the version chain.
// Tuple(id) materializes a row on demand; hot paths read cells via
// Col/ValueAt instead.
type Instance struct {
	schema *Schema
	// cols holds one typed column per attribute; n is the size of this
	// version's ID universe (columns may be longer when a fork has
	// appended — ids >= n belong to newer versions).
	cols    []column
	n       int
	dead    tombstones // shared along the chain, see tombstones.go
	live    int        // number of live tuples
	version uint64
	frozen  bool // set by Fork: mutations must go through the fork
	// idx is the chain's shared index (see index.go): the partitions —
	// the tuple-key partition behind Lookup and Insert's set semantics,
	// and the partitions on FD left-hand sides and probed attributes,
	// built lazily on first use. They are append-only and maintained
	// through Insert without rebuilds. Forks share the pointer;
	// snapshot consistency comes from filtering by the reading
	// version's ID bound and tombstones.
	idx *chainIndex
}

// NewInstance returns an empty instance of the schema.
func NewInstance(schema *Schema) *Instance {
	if schema == nil {
		panic("relation: nil schema")
	}
	return &Instance{
		schema: schema,
		cols:   newColumns(schema),
		idx:    newChainIndex(schema),
	}
}

// Schema returns the instance's schema.
func (r *Instance) Schema() *Schema { return r.schema }

// Len returns the number of live (distinct, non-deleted) tuples.
func (r *Instance) Len() int { return r.live }

// NumIDs returns the size of the TupleID universe [0, NumIDs()):
// live tuples plus tombstones. Structures indexed by TupleID (bit
// sets, conflict graphs) must be sized by NumIDs, not Len.
func (r *Instance) NumIDs() int { return r.n }

// Version returns the monotone mutation counter: every successful
// Insert, Delete or Union bumps it. Forks inherit the parent's
// counter and continue from there.
func (r *Instance) Version() uint64 { return r.version }

// Live reports whether id identifies a non-deleted tuple.
func (r *Instance) Live(id TupleID) bool {
	if id < 0 || id >= r.n {
		return false
	}
	return !r.dead.has(id)
}

// DeadIDs returns an independent copy of the tombstone set, or nil
// when no tuple has been deleted.
func (r *Instance) DeadIDs() *bitset.Set {
	if r.live == r.n {
		return nil
	}
	return r.dead.flat(r.n)
}

// Fork returns a mutable child version sharing storage with r, and
// freezes r: every later mutation must target the fork (or a sibling
// fork, which detaches on its first insert, see detach). Forking is
// O(arity): the columns, the indexes and the tombstones are shared,
// not copied, which is what makes point mutations under snapshot
// isolation cheap. Readers of r observe exactly the state at fork
// time.
func (r *Instance) Fork() *Instance {
	r.frozen = true
	return &Instance{
		schema: r.schema,
		// Column headers are copied so the child's appends never move
		// the parent's bounds; the backing arrays are shared, and the
		// parent reads only ids below its own n.
		cols:    append([]column(nil), r.cols...),
		n:       r.n,
		dead:    r.dead,
		live:    r.live,
		version: r.version,
		idx:     r.idx, // shared: the partitions are valid for every version of the chain
	}
}

func (r *Instance) mutable() {
	if r.frozen {
		panic("relation: mutating a frozen (forked) instance")
	}
}

// typeCheck validates a tuple against the schema.
func (r *Instance) typeCheck(t Tuple) error {
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("relation: %s expects %d values, got %d", r.schema.Name(), r.schema.Arity(), len(t))
	}
	for i, v := range t {
		if v.Kind() != r.schema.Attr(i).Kind {
			return fmt.Errorf("relation: %s.%s expects %s, got %s %s",
				r.schema.Name(), r.schema.Attr(i).Name, r.schema.Attr(i).Kind, v.Kind(), v)
		}
	}
	return nil
}

// TypeCheck validates a tuple against the schema without inserting
// it — the pre-validation step of write-ahead logging, which must
// know a row will apply before logging it.
func (r *Instance) TypeCheck(t Tuple) error { return r.typeCheck(t) }

// Insert adds a tuple. It returns the tuple's ID and whether the
// tuple was new; inserting a duplicate is not an error (set
// semantics) and returns the existing ID. Re-inserting a previously
// deleted tuple assigns a fresh ID.
func (r *Instance) Insert(t Tuple) (TupleID, bool, error) {
	r.mutable()
	if err := r.typeCheck(t); err != nil {
		return -1, false, err
	}
	if id, ok := r.Lookup(t); ok {
		return id, false, nil
	}
	id := TupleID(r.n)
	r.idx.mu.RLock()
	sibling := id <= r.idx.lastID
	r.idx.mu.RUnlock()
	if sibling {
		r.detach()
	}
	for a := range r.cols {
		r.cols[a].push(t[a])
	}
	r.n++
	r.idx.noteInsert(id, r.cols)
	r.live++
	r.version++
	return id, true, nil
}

// Delete tombstones the tuple with the given ID and reports whether
// it was live. IDs of other tuples are unchanged; the ID is never
// reused.
func (r *Instance) Delete(id TupleID) bool {
	r.mutable()
	if !r.Live(id) {
		return false
	}
	r.dead = r.dead.with(id)
	r.live--
	r.version++
	return true
}

// CoerceTuple coerces native Go values (strings → names, integer
// types → ints) into a Tuple.
func CoerceTuple(vals ...any) (Tuple, error) {
	t := make(Tuple, len(vals))
	for i, x := range vals {
		v, err := CoerceValue(x)
		if err != nil {
			return nil, err
		}
		t[i] = v
	}
	return t, nil
}

// InsertValues coerces native Go values (strings → names, ints →
// integers) and inserts the resulting tuple.
func (r *Instance) InsertValues(vals ...any) (TupleID, error) {
	t, err := CoerceTuple(vals...)
	if err != nil {
		return -1, err
	}
	id, _, err := r.Insert(t)
	return id, err
}

// MustInsert is InsertValues that panics on error, for fixtures.
func (r *Instance) MustInsert(vals ...any) TupleID {
	id, err := r.InsertValues(vals...)
	if err != nil {
		panic(err)
	}
	return id
}

// Tuple materializes the tuple with the given ID from the columns
// (including tombstoned IDs — deleted tuples keep their data for
// explanation output). Each call allocates a fresh row; code touching
// individual cells in bulk should read the columns via Col or ValueAt
// instead.
func (r *Instance) Tuple(id TupleID) Tuple {
	t := make(Tuple, len(r.cols))
	for a := range r.cols {
		t[a] = r.cols[a].value(id)
	}
	return t
}

// Lookup returns the ID of an equal live tuple, if present. It is a
// probe of the tuple-key partition — O(1) in the instance size, and
// allocation-free — and the membership primitive every query.Model
// and the cqa ground path build on. The newest ID of the tuple below
// the version's bound is the only one that can be live: a tuple is
// only inserted again once its older ID is dead.
func (r *Instance) Lookup(t Tuple) (TupleID, bool) {
	if len(t) != len(r.cols) {
		return 0, false
	}
	ix := r.idx
	ix.mu.RLock()
	id := TupleID(-1)
	if _, g := ix.parts[0].find(t, ix.cols, 0); g >= 0 {
		id = ix.parts[0].below(g, r.n)
	}
	ix.mu.RUnlock()
	if id < 0 || r.dead.has(id) {
		return 0, false
	}
	return id, true
}

// Contains reports whether an equal live tuple is present, in O(1)
// via Lookup. For equality lookups on a single attribute use Posting
// (index.go).
func (r *Instance) Contains(t Tuple) bool {
	_, ok := r.Lookup(t)
	return ok
}

// Range iterates live tuples in ID order, materializing each row from
// the columns; stop early by returning false. Code that only needs
// ids or individual cells should use RangeIDs/Col instead and skip
// the per-row materialization.
func (r *Instance) Range(yield func(id TupleID, t Tuple) bool) {
	r.RangeIDs(func(id TupleID) bool { return yield(id, r.Tuple(id)) })
}

// RangeIDs iterates live tuple IDs in ascending order without
// touching the tuple data; stop early by returning false.
func (r *Instance) RangeIDs(yield func(id TupleID) bool) {
	for id := 0; id < r.n; id++ {
		if r.dead.has(id) {
			continue
		}
		if !yield(id) {
			return
		}
	}
}

// AllIDs returns the set of all live tuple IDs.
func (r *Instance) AllIDs() *bitset.Set {
	s := bitset.Full(r.n)
	if dead := r.DeadIDs(); dead != nil {
		s.DifferenceWith(dead)
	}
	return s
}

// Subset materializes the live tuples selected by the given ID set as
// a fresh Instance (same schema). Mostly for display; algorithms work
// on the ID sets directly.
func (r *Instance) Subset(ids *bitset.Set) *Instance {
	out := NewInstance(r.schema)
	ids.Range(func(id int) bool {
		if r.Live(id) {
			out.Insert(r.Tuple(id)) //nolint:errcheck // re-inserting typed tuples cannot fail
		}
		return true
	})
	return out
}

// SortedIDs returns the live tuple IDs ordered by tuple value (Order),
// for deterministic rendering.
func (r *Instance) SortedIDs() []TupleID {
	ids := make([]TupleID, 0, r.live)
	r.Range(func(id TupleID, _ Tuple) bool {
		ids = append(ids, id)
		return true
	})
	sort.Slice(ids, func(a, b int) bool {
		return r.compareIDs(ids[a], ids[b]) < 0
	})
	return ids
}

// String renders the instance as a deterministic multi-line listing.
func (r *Instance) String() string {
	var b strings.Builder
	b.WriteString(r.schema.String())
	b.WriteString(" {")
	for i, id := range r.SortedIDs() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte(' ')
		b.WriteString(r.Tuple(id).String())
	}
	b.WriteString(" }")
	return b.String()
}
