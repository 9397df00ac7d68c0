package relation

import (
	"slices"
	"sort"
	"sync"
)

// The chain index.
//
// A chainIndex is the index of one instance version chain: its
// partitions (partition.go) — the tuple-key partition behind Lookup
// and the set semantics of Insert, one per FD left-hand side, and one
// per probed attribute, which serves the value probes (Posting,
// IndexEstimate, the distinct values). The structure exploits the
// storage model of the chain — tuple IDs are dense, assigned in
// insertion order, never reused, and the cell data for an ID is
// immutable — so one shared, append-only index serves every version of
// the chain:
//
//   - A version with NumIDs() = n sees exactly the members with
//     id < n, filtered by its own tombstone set. Older snapshots
//     therefore read the same index as the mutable head and stay
//     consistent by construction; Delete needs no index maintenance
//     at all.
//   - Insert files the new ID in every partition built so far; an
//     attribute nobody has probed yet costs nothing.
//   - Fork shares the index pointer with the child. A fork of a parent
//     that was already forked is a sibling: its first insert would
//     claim an ID the index holds, so it detaches first (see detach)
//     onto columns and an index of its own.
//
// A partition is built on its first use, over every ID of the chain,
// and maintained incrementally after that. The partition on one
// attribute is one object whoever asks first: the violation scan of an
// FD whose left-hand side is that attribute, or a probe. All access
// goes through idx.mu because the facade mutates the head version
// while readers probe published snapshots concurrently.

// chainIndex is the shared index of a version chain.
type chainIndex struct {
	mu sync.RWMutex
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
		cols: newColumns(s), lastID: -1,
		parts: []*partition{{attrs: all, table: make([]int32, 8)}},
	}
}

// noteInsert records tuple id, just appended to cols, in the
// partitions.
func (ix *chainIndex) noteInsert(id TupleID, cols []column) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.lastID = id
	copy(ix.cols, cols)
	for _, p := range ix.parts {
		p.add(ix.cols, id)
	}
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

// Posting appends to dst the IDs the version holds whose attribute
// attr is v, dead ones included, in ascending order: the group of v in
// the partition on attr, built on first use. Callers filter the dead
// IDs against their own visibility. It allocates only to grow dst.
func (r *Instance) Posting(dst []TupleID, attr int, v Value) []TupleID {
	return r.Partition([]int{attr}).Members(dst, []Value{v})
}

// PostingIDs is Posting into a fresh slice.
func (r *Instance) PostingIDs(attr int, v Value) []TupleID { return r.Posting(nil, attr, v) }

// IndexEstimate returns an upper bound on the number of live tuples
// of r with attribute attr equal to v: the length of its Posting,
// tombstoned IDs included. It is the planner's selectivity estimate —
// cheap, monotone, and exact on an unmutated instance.
func (r *Instance) IndexEstimate(attr int, v Value) int {
	return r.Partition([]int{attr}).Size([]Value{v})
}

// DistinctEstimate returns the number of distinct values of attribute
// attr across the whole version chain — an upper bound on this
// version's distinct count, used by the planner to estimate the rows
// of a runtime-bound index probe (card / distinct). Building the
// partition on first use is the same cost the probe itself would pay.
func (r *Instance) DistinctEstimate(attr int) int {
	pt := r.Partition([]int{attr})
	pt.ix.mu.RLock()
	defer pt.ix.mu.RUnlock()
	return len(pt.p.last)
}

// SortedDistinctValues returns the distinct values of attribute attr
// across the whole version chain — live or tombstoned, this version or
// newer — in ascending Value.Order. It is the sorted per-attribute
// value iterator of the worst-case-optimal join: a cheap superset of
// any version's distinct values, where each candidate value is
// confirmed or discarded by a single posting intersection. The slice
// is cached on the partition (rebuilt only when new distinct values
// appear) and must not be mutated; once returned it is immutable —
// concurrent rebuilds allocate a fresh slice.
func (r *Instance) SortedDistinctValues(attr int) []Value {
	pt := r.Partition([]int{attr})
	p, ix := pt.p, pt.ix
	ix.mu.RLock()
	if len(p.sorted) == len(p.last) {
		s := p.sorted
		ix.mu.RUnlock()
		return s
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(p.sorted) != len(p.last) {
		s := make([]Value, len(p.last))
		for g := range s {
			s[g] = p.value(ix.cols, g)
		}
		sort.Slice(s, func(i, j int) bool { return s[i].Order(s[j]) < 0 })
		p.sorted = s
	}
	return p.sorted
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
