// Package pmap implements a persistent map from dense non-negative
// integer keys (tuple IDs, component IDs) to values: a radix trie on
// the key, five bits per level, updated by path copying. Map has value
// semantics — the zero value is the empty map and an assignment is the
// fork: Set and Delete replace the O(log n) nodes between the root and
// the key and never write a node another copy can reach, so every copy
// keeps reading exactly what it held when it was taken. It is what
// lets a version of the conflict graph or of the priority be derived
// from its parent by sharing the parent's overlay instead of copying
// it.
package pmap

import "math/bits"

const (
	width = 5 // key bits consumed per level
	fan   = 1 << width
)

// Map is a persistent map from non-negative ints to V. A Map may be
// read from any number of goroutines; Set and Delete need the caller
// to own the variable they are applied to, as with any value.
type Map[V any] struct {
	root  *node[V]
	shift uint // bit position of the root's digit: the root spans the keys below 1<<(shift+width)
	n     int
}

// node stores its occupied slots only: bit d of occ is set when digit
// d is present, and its entry sits at index popcount(occ below d). A
// node at shift 0 is a leaf and holds vals, any other holds kids. A
// node is immutable once a Map points at it.
type node[V any] struct {
	occ  uint32
	kids []*node[V]
	vals []V
}

// slot returns the index of digit d among the node's entries and
// whether it is occupied.
func (nd *node[V]) slot(d uint) (int, bool) {
	bit := uint32(1) << d
	return bits.OnesCount32(nd.occ & (bit - 1)), nd.occ&bit != 0
}

// Len returns the number of keys.
func (m Map[V]) Len() int { return m.n }

// Get returns the value stored under k. The empty map answers without
// a call, so a structure that is rarely overlaid pays one nil check.
func (m Map[V]) Get(k int) (v V, ok bool) {
	if m.root != nil {
		v, ok = m.get(k)
	}
	return v, ok
}

func (m Map[V]) get(k int) (v V, ok bool) {
	if uint(k)>>m.shift >= fan {
		return v, false // beyond the root's span (or negative)
	}
	nd := m.root
	for s := m.shift; ; s -= width {
		i, ok := nd.slot(uint(k) >> s & (fan - 1))
		if !ok {
			return v, false
		}
		if s == 0 {
			return nd.vals[i], true
		}
		nd = nd.kids[i]
	}
}

// Set stores v under k, which must not be negative.
func (m *Map[V]) Set(k int, v V) {
	if k < 0 {
		panic("pmap: negative key")
	}
	for uint(k)>>m.shift >= fan {
		if m.root != nil {
			m.root = &node[V]{occ: 1, kids: []*node[V]{m.root}}
		}
		m.shift += width
	}
	var added bool
	if m.root, added = m.root.set(m.shift, uint(k), v); added {
		m.n++
	}
}

// set returns a copy of nd (nil: an empty node) with v stored under k,
// and whether k is new.
func (nd *node[V]) set(s, k uint, v V) (*node[V], bool) {
	var old node[V]
	if nd != nil {
		old = *nd
	}
	d := k >> s & (fan - 1)
	i, has := old.slot(d)
	out := &node[V]{occ: old.occ | 1<<d}
	if s == 0 {
		out.vals = with(old.vals, i, !has, v)
		return out, !has
	}
	var kid *node[V]
	if has {
		kid = old.kids[i]
	}
	kid, added := kid.set(s-width, k, v)
	out.kids = with(old.kids, i, !has, kid)
	return out, added
}

// Delete removes k; a key that is not present is left alone.
func (m *Map[V]) Delete(k int) {
	if _, ok := m.Get(k); ok {
		m.root = m.root.del(m.shift, uint(k))
		m.n--
	}
}

// del returns a copy of nd without k, which is present; nil when k was
// the node's only entry.
func (nd *node[V]) del(s, k uint) *node[V] {
	d := k >> s & (fan - 1)
	i, _ := nd.slot(d)
	if s > 0 {
		if kid := nd.kids[i].del(s-width, k); kid != nil {
			return &node[V]{occ: nd.occ, kids: with(nd.kids, i, false, kid)}
		}
	}
	if nd.occ == 1<<d {
		return nil
	}
	if s > 0 {
		return &node[V]{occ: nd.occ &^ (1 << d), kids: without(nd.kids, i)}
	}
	return &node[V]{occ: nd.occ &^ (1 << d), vals: without(nd.vals, i)}
}

// Range calls yield for every entry in ascending key order until it
// returns false.
func (m Map[V]) Range(yield func(k int, v V) bool) {
	if m.root != nil {
		m.root.walk(m.shift, 0, yield)
	}
}

func (nd *node[V]) walk(s uint, prefix int, yield func(int, V) bool) bool {
	i := 0
	for occ := nd.occ; occ != 0; occ &= occ - 1 {
		k := prefix | bits.TrailingZeros32(occ)<<s
		if s == 0 {
			if !yield(k, nd.vals[i]) {
				return false
			}
		} else if !nd.kids[i].walk(s-width, k, yield) {
			return false
		}
		i++
	}
	return true
}

// with returns a copy of s with x at index i: in place of the element
// there, or — when insert is set — in front of it.
func with[T any](s []T, i int, insert bool, x T) []T {
	if !insert {
		out := make([]T, len(s))
		copy(out, s)
		out[i] = x
		return out
	}
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out
}

// without returns a copy of s with the element at index i removed.
func without[T any](s []T, i int) []T {
	out := make([]T, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}
