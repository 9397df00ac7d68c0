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
// every attribute, and an FD's conflicts lie inside the groups of the
// partition on its left-hand side. Three arrays hold it: an
// open-addressing table of group IDs, probed with a seeded hash of the
// projected cells; per group its newest member; and per tuple ID the
// previous member of its group. A collision is settled by comparing
// cells with the group's newest member, so no key is ever built, and
// group IDs are issued in first-seen order, so nothing observable
// depends on the seed. A partition lives on the chain's index, holds
// every ID of the chain, and is read, like the postings, through a
// version's ID bound and tombstones. A group's newest member is the one
// cell written in place: read it under idx.mu.

var hashSeed = maphash.MakeSeed()

// hashMask narrows every partition hash; tests narrow it to a few bits
// so that every probe collides.
var hashMask = ^uint64(0)

type partition struct {
	attrs []int
	table []int32 // per slot: group ID + 1, 0 when empty; the length is a power of two
	last  []int32 // per group: its newest member
	prev  []int32 // per tuple ID: the previous member of its group, -1 for none
}

// cell is the value of attribute a of t, or of row id of cols when t
// is nil.
func cell(t Tuple, cols []column, id TupleID, a int) Value {
	if t != nil {
		return t[a]
	}
	return cols[a].value(id)
}

// hash hashes the cells of p.attrs of t, or of row id of cols when t is
// nil: one function, so a tuple and the row equal to it hash alike.
func (p *partition) hash(t Tuple, cols []column, id TupleID) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	var b [8]byte
	for _, a := range p.attrs {
		v := cell(t, cols, id, a)
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

// find returns the slot of the group of t (of row id of cols when t is
// nil) and the group, or the empty slot the group would take and -1.
func (p *partition) find(t Tuple, cols []column, id TupleID) (int, int32) {
	mask := len(p.table) - 1
	for i := int(p.hash(t, cols, id)) & mask; ; i = (i + 1) & mask {
		g := p.table[i] - 1
		if g < 0 || p.same(t, cols, id, TupleID(p.last[g])) {
			return i, g
		}
	}
}

// same reports whether row m of cols agrees with t (with row id of cols
// when t is nil) on p.attrs.
func (p *partition) same(t Tuple, cols []column, id, m TupleID) bool {
	for _, a := range p.attrs {
		if !cols[a].value(m).Equal(cell(t, cols, id, a)) {
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
		return
	}
	p.prev = append(p.prev, -1)
	p.last = append(p.last, int32(id))
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

// partition returns the partition on attrs, building it on first use.
// Entries of ix.parts are never replaced, so a captured header can be
// searched outside the lock.
func (ix *chainIndex) partition(attrs []int) *partition {
	match := func(p *partition) bool { return slices.Equal(p.attrs, attrs) }
	ix.mu.RLock()
	parts := ix.parts
	ix.mu.RUnlock()
	if i := slices.IndexFunc(parts, match); i >= 0 {
		return parts[i]
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if i := slices.IndexFunc(ix.parts, match); i >= 0 {
		return ix.parts[i]
	}
	p := &partition{attrs: slices.Clone(attrs), table: make([]int32, 8), prev: make([]int32, 0, ix.lastID+1)}
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
