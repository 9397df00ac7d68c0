package relation

import (
	"slices"
	"sort"
	"sync"
)

// The chain index.
//
// A chainIndex is the index of one instance version chain: its
// partitions (partition.go), the tuple-key index behind Lookup and the
// set semantics of Insert among them, and, for every attribute
// position, a map from value to the ascending list of tuple IDs
// carrying that value. The structure exploits the storage model of
// the chain — tuple IDs are dense, assigned in insertion order, never
// reused, and the cell data for an ID is immutable — so one shared,
// append-only index serves every version of the chain:
//
//   - A version with NumIDs() = n sees exactly the entries with
//     id < n, filtered by its own tombstone set. Older snapshots
//     therefore read the same index as the mutable head and stay
//     consistent by construction; Delete needs no index maintenance
//     at all.
//   - Insert files the new ID in every partition and appends it to the
//     postings of each already-built attribute (IDs arrive in
//     ascending order, keeping postings sorted); attributes nobody has
//     probed yet cost nothing.
//   - Fork shares the index pointer with the child. A fork of a parent
//     that was already forked is a sibling: its first insert would
//     claim an ID the index holds, so it detaches first (see detach)
//     onto columns and an index of its own.
//
// Postings for one attribute are built lazily, on the first probe of
// that attribute, by a single pass over the probing version's column;
// a partition on its first use, over every ID of the chain. After that
// both are maintained incrementally forever. All access goes through
// idx.mu because the facade mutates the head version while readers
// probe published snapshots concurrently.

// attrPostings is the index of a single attribute position: a map
// from value to the ascending tuple IDs carrying it, typed by the
// column's kind — ints for KindInt, strs for KindName; the other map
// stays nil, so a value of the wrong kind finds nothing. A map entry
// is the value itself and the posting slice: no key encoding and no
// object per value. upto is the exclusive upper bound of indexed IDs:
// every live or dead tuple with id < upto appears in the map.
type attrPostings struct {
	built bool
	upto  int
	ints  map[int64][]TupleID
	strs  map[string][]TupleID
	// sorted caches the distinct values of the attribute in ascending
	// Value.Order, rebuilt lazily whenever new distinct values appear
	// (sortedLen is the distinct count at build time). See
	// SortedDistinctValues.
	sorted    []Value
	sortedLen int
}

// lookup returns the posting of v, nil when v does not occur.
func (ap *attrPostings) lookup(v Value) []TupleID {
	if v.kind == KindInt {
		return ap.ints[v.i]
	}
	return ap.strs[v.s]
}

// distinct returns the number of distinct values indexed.
func (ap *attrPostings) distinct() int { return len(ap.ints) + len(ap.strs) }

// rangeValues calls yield with every distinct value and its posting,
// in map order.
func (ap *attrPostings) rangeValues(yield func(Value, []TupleID)) {
	for k, ids := range ap.ints {
		yield(Value{kind: KindInt, i: k}, ids)
	}
	for k, ids := range ap.strs {
		yield(Value{kind: KindName, s: k}, ids)
	}
}

// chainIndex is the shared index of a version chain.
type chainIndex struct {
	mu    sync.RWMutex
	attrs []attrPostings
	// cols holds the column headers as of the newest insert: every
	// partition reads its cells from them, whichever version probes.
	cols []column
	// parts holds the partitions built so far. parts[0], on every
	// attribute, is the tuple-key index and is kept from the start;
	// each holds every ID up to lastID.
	parts []*partition
	// lastID is the highest tuple ID ever inserted through this
	// index. On a linear version chain insert IDs strictly increase;
	// an instance about to insert an ID at or below it is a sibling
	// fork and must detach first (see Instance.detach).
	lastID TupleID
}

func newChainIndex(s *Schema) *chainIndex {
	all := make([]int, s.Arity())
	for a := range all {
		all[a] = a
	}
	return &chainIndex{
		attrs: make([]attrPostings, len(all)), cols: newColumns(s), lastID: -1,
		parts: []*partition{{attrs: all, table: make([]int32, 8)}},
	}
}

// extendLocked indexes column cells [ap.upto, n) into attribute attr.
// Caller holds ix.mu for writing; col is the probing instance's
// column, so cells below n are immutable.
func (ix *chainIndex) extendLocked(attr int, col *column, n int) {
	ap := &ix.attrs[attr]
	if col.kind == KindInt {
		if ap.ints == nil {
			ap.ints = make(map[int64][]TupleID)
		}
		for id := ap.upto; id < n; id++ {
			k := col.ints[id]
			ap.ints[k] = append(ap.ints[k], id)
		}
	} else {
		if ap.strs == nil {
			ap.strs = make(map[string][]TupleID)
		}
		for id := ap.upto; id < n; id++ {
			k := col.strs[id]
			ap.strs[k] = append(ap.strs[k], id)
		}
	}
	ap.upto = n
	ap.built = true
}

// noteInsert records tuple id, just appended to cols, in the
// partitions and the built attributes.
func (ix *chainIndex) noteInsert(id TupleID, cols []column) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.lastID = id
	copy(ix.cols, cols)
	for _, p := range ix.parts {
		p.add(ix.cols, id)
	}
	for attr := range ix.attrs {
		if ix.attrs[attr].built {
			ix.extendLocked(attr, &cols[attr], id+1)
		}
	}
}

// ensure returns the posting IDs of (attr, v) covering at least IDs
// [0, n), building or catching up the attribute index if needed. The
// slice header is captured under the lock; a concurrent writer may
// append past its length (never reallocating entries below it), so
// reading the returned prefix is race-free. Entries >= n belong to
// newer versions of the chain and must be skipped by the caller.
func (ix *chainIndex) ensure(attr int, v Value, col *column, n int) []TupleID {
	ix.mu.RLock()
	ap := &ix.attrs[attr]
	if ap.built && ap.upto >= n {
		ids := ap.lookup(v)
		ix.mu.RUnlock()
		return ids
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ap.built || ap.upto < n {
		ix.extendLocked(attr, col, n)
	}
	return ap.lookup(v)
}

// ensureBuilt forces the attribute index to cover IDs [0, n).
func (ix *chainIndex) ensureBuilt(attr int, col *column, n int) {
	ix.mu.RLock()
	ap := &ix.attrs[attr]
	ok := ap.built && ap.upto >= n
	ix.mu.RUnlock()
	if ok {
		return
	}
	ix.mu.Lock()
	if !ap.built || ap.upto < n {
		ix.extendLocked(attr, col, n)
	}
	ix.mu.Unlock()
}

// index returns the instance's index, which NewInstance always
// allocates; the accessor exists so zero-value-ish internal callers
// fail loudly rather than racing on lazy allocation.
func (r *Instance) index() *chainIndex {
	if r.idx == nil {
		panic("relation: instance has no index (not built by NewInstance?)")
	}
	return r.idx
}

// PostingIDs returns the raw secondary-index posting of (attr, v):
// the ascending tuple IDs whose attribute attr equals v, built or
// caught up on first use. The slice is shared with the index and must
// not be mutated; it may contain IDs of newer chain versions (>=
// NumIDs()) and tombstoned IDs — the batch executor filters both
// against its own visibility, which is exactly why it wants the raw
// posting rather than a filtered iteration.
func (r *Instance) PostingIDs(attr int, v Value) []TupleID {
	return r.index().ensure(attr, v, &r.cols[attr], r.n)
}

// IndexEstimate returns an upper bound on the number of live tuples
// of r with attribute attr equal to v: the posting length including
// tombstoned and newer-version IDs. It is the planner's selectivity
// estimate — cheap, monotone, and exact on an unmutated instance.
func (r *Instance) IndexEstimate(attr int, v Value) int {
	// Count only the prefix visible to this version; the tail belongs
	// to newer forks.
	n, _ := slices.BinarySearch(r.index().ensure(attr, v, &r.cols[attr], r.n), r.n)
	return n
}

// DistinctEstimate returns the number of distinct values of attribute
// attr across the whole version chain — an upper bound on this
// version's distinct count, used by the planner to estimate the rows
// of a runtime-bound index probe (card / distinct). Building the
// attribute index on first use is the same cost the probe itself
// would pay.
func (r *Instance) DistinctEstimate(attr int) int {
	ix := r.index()
	ix.ensureBuilt(attr, &r.cols[attr], r.n)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.attrs[attr].distinct()
}

// DistinctValuesLive appends the distinct values occurring in
// attribute attr of a live tuple of r to dst and returns it — exact
// even when the instance carries tombstones, by skipping posting IDs
// that are dead or belong to newer chain versions. The cost is
// O(distinct values + tombstones inspected): each posting is walked
// only until its first live ID. Order is unspecified; callers sort.
func (r *Instance) DistinctValuesLive(attr int, dst []Value) []Value {
	n := r.n
	ix := r.index()
	ix.ensureBuilt(attr, &r.cols[attr], n)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.attrs[attr].rangeValues(func(v Value, ids []TupleID) {
		for _, id := range ids {
			if id >= n {
				break
			}
			if !r.dead.has(id) {
				dst = append(dst, v)
				break
			}
		}
	})
	return dst
}

// SortedDistinctValues returns the distinct values of attribute attr
// across the whole version chain — live or tombstoned, this version or
// newer — in ascending Value.Order. It is the sorted per-attribute
// value iterator of the worst-case-optimal join: a cheap superset of
// any version's distinct values, where each candidate value is
// confirmed or discarded by a single posting intersection. The slice
// is cached on the shared index (rebuilt only when new distinct values
// appear) and must not be mutated; once returned it is immutable —
// concurrent rebuilds allocate a fresh slice.
func (r *Instance) SortedDistinctValues(attr int) []Value {
	ix := r.index()
	ix.ensureBuilt(attr, &r.cols[attr], r.n)
	ix.mu.RLock()
	ap := &ix.attrs[attr]
	if ap.sortedLen == ap.distinct() {
		s := ap.sorted
		ix.mu.RUnlock()
		return s
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ap.sortedLen != ap.distinct() {
		s := make([]Value, 0, ap.distinct())
		ap.rangeValues(func(v Value, _ []TupleID) { s = append(s, v) })
		sort.Slice(s, func(i, j int) bool { return s[i].Order(s[j]) < 0 })
		ap.sorted, ap.sortedLen = s, len(s)
	}
	return ap.sorted
}

// detach moves r onto columns and an index of its own, before r
// appends an ID that a sibling fork of its parent already claimed:
// clipping the columns makes the next append copy them rather than
// overwrite the sibling's cells, and the fresh index is refilled from
// r's own rows.
func (r *Instance) detach() {
	for a := range r.cols {
		c := &r.cols[a]
		c.ints, c.strs = slices.Clip(c.ints), slices.Clip(c.strs)
	}
	r.idx = newChainIndex(r.schema)
	for id := 0; id < r.n; id++ {
		r.idx.noteInsert(id, r.cols)
	}
}
