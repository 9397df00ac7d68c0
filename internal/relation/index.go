package relation

import (
	"sort"
	"sync"
)

// The chain index.
//
// A chainIndex is the index of one instance version chain: the tuple
// key index (whole-tuple key → tuple ID, behind Lookup and the set
// semantics of Insert) and, for every attribute position, a map from
// value to the ascending list of tuple IDs carrying that value.
// The structure exploits the storage model of the chain — tuple IDs are
// dense, assigned in insertion order, never reused, and the cell
// data for an ID is immutable — so one shared, append-only index
// serves every version of the chain:
//
//   - A version with NumIDs() = n sees exactly the postings entries
//     with id < n, filtered by its own tombstone set. Older snapshots
//     therefore read the same postings as the mutable head and stay
//     consistent by construction; Delete needs no index maintenance
//     at all. The key index is read the same way: a key maps to the
//     IDs it was inserted under, newest first (a tuple re-inserted
//     after a delete gets a fresh ID), and a version takes the first
//     one below its own bound — if that one is dead for it, so is
//     every older one, since the newer was only assigned after the
//     older had been deleted.
//   - Insert appends the new ID to the postings of each already-built
//     attribute (IDs arrive in ascending order, keeping postings
//     sorted); attributes nobody has probed yet cost nothing.
//   - Fork shares the index pointer with the child. Forking the same
//     frozen parent twice is NOT supported by the storage chain
//     itself (sibling forks append into one shared column arena and
//     clobber each other); the index defends itself anyway — a
//     non-monotone insert ID reveals the sibling and the younger
//     chain detaches onto a fresh index (see noteInsert) — so it
//     never compounds the storage hazard with stale postings.
//
// Postings for one attribute are built lazily, on the first probe of
// that attribute, by a single pass over the probing version's column;
// after that the index is maintained incrementally forever. All
// access goes through idx.mu because the facade mutates the head
// version while readers probe published snapshots concurrently.

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
	// keys maps a tuple key to the newest ID inserted under it, live
	// or not; older links a re-inserted tuple's ID to the one its key
	// carried before (nil until the first re-insert).
	keys  map[string]TupleID
	older map[TupleID]TupleID
	// lastID is the highest tuple ID ever inserted through this
	// index. On a linear version chain insert IDs strictly increase;
	// a repeated or smaller ID means a sibling fork shares the index
	// and must detach before anything is recorded.
	lastID TupleID
}

func newChainIndex(arity int) *chainIndex {
	return &chainIndex{attrs: make([]attrPostings, arity), keys: make(map[string]TupleID), lastID: -1}
}

// lookupKey returns the newest ID below n inserted under tuple key k:
// the one a version with NumIDs() = n resolves k to, once it has
// checked it against its own tombstones.
func (ix *chainIndex) lookupKey(k string, n int) (TupleID, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	id, ok := ix.keys[k]
	for ok && id >= n {
		id, ok = ix.older[id]
	}
	return id, ok
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

// noteInsert records tuple id, appended to the columns under tuple
// key k, in the key index and the built attributes. diverged=true
// signals that a sibling fork of the same parent already claimed this
// (or a later) ID: nothing was recorded and the caller must detach
// onto a fresh index. The check runs before anything is touched, so a
// divergent insert never poisons the keys and postings the first chain
// keeps using.
func (ix *chainIndex) noteInsert(id TupleID, k string, cols []column) (diverged bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if id <= ix.lastID {
		return true
	}
	ix.lastID = id
	if prev, ok := ix.keys[k]; ok {
		if ix.older == nil {
			ix.older = make(map[TupleID]TupleID)
		}
		ix.older[id] = prev
	}
	ix.keys[k] = id
	for attr := range ix.attrs {
		if ix.attrs[attr].built {
			ix.extendLocked(attr, &cols[attr], id+1)
		}
	}
	return false
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
	n := r.n
	ids := r.index().ensure(attr, v, &r.cols[attr], n)
	// Count only the prefix visible to this version; the tail belongs
	// to newer forks.
	if k := len(ids); k > 0 && ids[k-1] >= n {
		lo, hi := 0, k
		for lo < hi {
			mid := (lo + hi) / 2
			if ids[mid] < n {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	return len(ids)
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

// noteInsert is the Insert hook: keep the key index and the built
// attribute indexes in step, detaching onto a private index — its key
// index refilled from this chain's own columns, its postings rebuilt
// on the next probe — if a sibling fork already claimed the ID.
func (r *Instance) noteInsert(id TupleID, k string) {
	if r.idx.noteInsert(id, k, r.cols) {
		r.idx = newChainIndex(r.schema.Arity())
		for old := 0; old <= id; old++ {
			r.idx.noteInsert(old, r.Tuple(old).Key(), r.cols)
		}
	}
}
