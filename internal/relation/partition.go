package relation

import (
	"encoding/binary"
	"hash/maphash"
	"slices"
)

// Partitions.
//
// A partition groups the tuple IDs of a version chain by their cells
// on a list of attributes: the tuple-key index is the partition on
// every attribute, an FD's conflicts lie inside the groups of the
// partition on its left-hand side, and a probe of one attribute for a
// value reads the group of that value in the partition on the
// attribute. Three arrays hold it: an open-addressing table of group
// IDs, probed with a seeded hash of the projected cells; per group its
// newest member; and per tuple ID the previous member of its group. A
// collision is settled by comparing cells with the group's newest
// member, so no key is ever built, and group IDs are issued in
// first-seen order, so nothing observable depends on the seed. A
// partition lives on the chain's index, holds every ID of the chain,
// and is read through a version's ID bound and tombstones. A group's
// newest member and its size are the cells written in place: read
// them under idx.mu.

var hashSeed = maphash.MakeSeed()

// hashMask narrows every partition hash; tests narrow it to a few bits
// so that every probe collides.
var hashMask = ^uint64(0)

type partition struct {
	attrs []int
	table []int32 // per slot: group ID + 1, 0 when empty; the length is a power of two
	last  []int32 // per group: its newest member
	prev  []int32 // per tuple ID: the previous member of its group, -1 for none
	// size holds per group its member count, on a partition of one
	// attribute only: the ones value probes read, whose callers pick
	// the shortest group.
	size []int32
	// sorted caches the group values of a one-attribute partition in
	// ascending Value.Order; a group is a distinct value, so it is
	// stale exactly when its length differs from the group count.
	sorted []Value
}

// cell is key's cell i, or row id's cell on attribute a when key is
// nil.
func cell(key []Value, cols []column, id TupleID, i, a int) Value {
	if key != nil {
		return key[i]
	}
	return cols[a].value(id)
}

// hash hashes key, the cells of p.attrs in order, or the cells of row
// id on p.attrs when key is nil: one function, so a key and the row
// that carries it hash alike.
func (p *partition) hash(key []Value, cols []column, id TupleID) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	var b [8]byte
	for i, a := range p.attrs {
		v := cell(key, cols, id, i, a)
		x := uint64(v.i)
		if v.kind == KindName {
			h.WriteString(v.s)
			x = uint64(len(v.s)) // ends the name
		}
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	return h.Sum64() & hashMask
}

// find returns the slot of the group of key (of row id of cols when
// key is nil) and the group, or the empty slot the group would take
// and -1.
func (p *partition) find(key []Value, cols []column, id TupleID) (int, int32) {
	mask := len(p.table) - 1
	for i := int(p.hash(key, cols, id)) & mask; ; i = (i + 1) & mask {
		g := p.table[i] - 1
		if g < 0 || p.same(key, cols, id, TupleID(p.last[g])) {
			return i, g
		}
	}
}

// same reports whether row m of cols carries key (agrees with row id
// of cols when key is nil) on p.attrs.
func (p *partition) same(key []Value, cols []column, id, m TupleID) bool {
	for i, a := range p.attrs {
		if !cols[a].value(m).Equal(cell(key, cols, id, i, a)) {
			return false
		}
	}
	return true
}

// add files id, the ID after the last one held, in its group.
func (p *partition) add(cols []column, id TupleID) {
	slot, g := p.find(nil, cols, id)
	if g >= 0 {
		p.prev = append(p.prev, p.last[g])
		p.last[g] = int32(id)
		if p.size != nil {
			p.size[g]++
		}
		return
	}
	p.prev = append(p.prev, -1)
	p.last = append(p.last, int32(id))
	if p.size != nil {
		p.size = append(p.size, 1)
	}
	p.table[slot] = int32(len(p.last))
	if 2*len(p.last) <= len(p.table) {
		return
	}
	p.table = make([]int32, 2*len(p.table))
	mask := len(p.table) - 1
	for g, m := range p.last {
		i := int(p.hash(nil, cols, TupleID(m))) & mask
		for p.table[i] != 0 {
			i = (i + 1) & mask
		}
		p.table[i] = int32(g + 1)
	}
}

// below returns the newest member of group g below n, or -1.
func (p *partition) below(g int32, n int) TupleID {
	m := p.last[g]
	for m >= int32(n) {
		m = p.prev[m]
	}
	return TupleID(m)
}

// count returns the number of members of group g below n.
func (p *partition) count(g int32, n int) int {
	c := 0
	m := p.last[g]
	if p.size != nil {
		for c = int(p.size[g]); m >= int32(n); m = p.prev[m] {
			c--
		}
		return c
	}
	for m = int32(p.below(g, n)); m >= 0; m = p.prev[m] {
		c++
	}
	return c
}

// value returns the value of group g of a one-attribute partition.
func (p *partition) value(cols []column, g int) Value {
	return cols[p.attrs[0]].value(TupleID(p.last[g]))
}

// findPartition returns the partition on attrs among parts, or nil.
func findPartition(parts []*partition, attrs []int) *partition {
	for _, p := range parts {
		if slices.Equal(p.attrs, attrs) {
			return p
		}
	}
	return nil
}

// partition returns the partition on attrs, building it on first use.
// Entries of ix.parts are never replaced, so a captured header can be
// searched outside the lock.
func (ix *chainIndex) partition(attrs []int) *partition {
	ix.mu.RLock()
	parts := ix.parts
	ix.mu.RUnlock()
	if p := findPartition(parts, attrs); p != nil {
		return p
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if p := findPartition(ix.parts, attrs); p != nil {
		return p
	}
	p := &partition{attrs: slices.Clone(attrs), table: make([]int32, 8), prev: make([]int32, 0, ix.lastID+1)}
	if len(attrs) == 1 {
		p.size = []int32{}
	}
	for id := 0; id <= ix.lastID; id++ {
		p.add(ix.cols, id)
	}
	ix.parts = append(ix.parts, p)
	return p
}

// Partition is the grouping of the tuple IDs of one instance version by
// their cells on a list of attributes: two IDs share a group exactly
// when their tuples agree on every attribute of the list.
type Partition struct {
	r  *Instance
	ix *chainIndex
	p  *partition
}

// Partition returns r's partition on attrs, built on first use by one
// pass over the chain's rows and kept in step by Insert from then on.
func (r *Instance) Partition(attrs []int) Partition {
	ix := r.index()
	return Partition{r: r, ix: ix, p: ix.partition(attrs)}
}

// Group appends to dst the IDs in the group of tuple id that the
// version holds, dead ones included, newest first.
func (pt Partition) Group(dst []TupleID, id TupleID) []TupleID {
	pt.ix.mu.RLock()
	defer pt.ix.mu.RUnlock()
	_, g := pt.p.find(nil, pt.ix.cols, id)
	for m := pt.p.below(g, pt.r.n); m >= 0; m = TupleID(pt.p.prev[m]) {
		dst = append(dst, m)
	}
	return dst
}

// Members appends to dst the IDs the version holds, dead ones
// included, whose cells on the partition's attributes are key (one
// value per attribute, in order), in ascending order: the value probe
// of the executors. It allocates only to grow dst.
func (pt Partition) Members(dst []TupleID, key []Value) []TupleID {
	pt.ix.mu.RLock()
	defer pt.ix.mu.RUnlock()
	_, g := pt.p.find(key, pt.ix.cols, 0)
	if g < 0 {
		return dst
	}
	k := len(dst)
	for m := pt.p.below(g, pt.r.n); m >= 0; m = TupleID(pt.p.prev[m]) {
		dst = append(dst, m)
	}
	slices.Reverse(dst[k:])
	return dst
}

// Size returns the number of IDs Members appends for key.
func (pt Partition) Size(key []Value) int {
	pt.ix.mu.RLock()
	defer pt.ix.mu.RUnlock()
	if _, g := pt.p.find(key, pt.ix.cols, 0); g >= 0 {
		return pt.p.count(g, pt.r.n)
	}
	return 0
}

// Groups lays out the live IDs of every group that has one as
// consecutive runs of ids, newest first, and appends the end of each
// run to ends; groups come in the order of their first members.
func (pt Partition) Groups(ids []TupleID, ends []int32) ([]TupleID, []int32) {
	pt.ix.mu.RLock()
	defer pt.ix.mu.RUnlock()
	ends = slices.Grow(ends, len(pt.p.last))
	for g := range pt.p.last {
		k := len(ids)
		for m := pt.p.below(int32(g), pt.r.n); m >= 0; m = TupleID(pt.p.prev[m]) {
			if !pt.r.dead.has(m) {
				ids = append(ids, m)
			}
		}
		if len(ids) > k {
			ends = append(ends, int32(len(ids)))
		}
	}
	return ids, ends
}
