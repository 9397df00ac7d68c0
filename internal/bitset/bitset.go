// Package bitset provides dense bit sets over small integer universes.
//
// Every algorithm in this module manipulates sets of tuple identifiers
// (repairs, neighborhoods, winnow results, candidate sets of the
// Bron–Kerbosch recursion). Tuple identifiers are dense, so a packed
// bit vector is both the fastest and the most memory-frugal
// representation. The zero value of Set is an empty set ready to use.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a set of non-negative integers backed by a bit vector.
// The zero value is an empty set. Sets grow on demand when elements
// are added; querying beyond the current capacity reports absence.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity preallocated for elements
// in [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromSlice returns a set containing exactly the given elements.
func FromSlice(elems []int) *Set {
	s := &Set{}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Full returns the set {0, 1, ..., n-1}.
func Full(n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		s.Add(i)
	}
	return s
}

func (s *Set) grow(word int) {
	if word < len(s.words) {
		return
	}
	w := make([]uint64, word+1)
	copy(w, s.words)
	s.words = w
}

// Add inserts i into the set. It panics if i is negative.
func (s *Set) Add(i int) {
	if i < 0 {
		panic("bitset: negative element " + strconv.Itoa(i))
	}
	w := i / wordBits
	s.grow(w)
	s.words[w] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set. Removing an absent element is a no-op.
func (s *Set) Remove(i int) {
	if i < 0 {
		return
	}
	w := i / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(i%wordBits)
	}
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	if i < 0 {
		return false
	}
	w := i / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(i%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// UnionWith adds every element of t to s and returns s.
func (s *Set) UnionWith(t *Set) *Set {
	s.grow(len(t.words) - 1)
	for i, w := range t.words {
		s.words[i] |= w
	}
	return s
}

// IntersectWith removes from s every element not in t and returns s.
func (s *Set) IntersectWith(t *Set) *Set {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &= t.words[i]
		} else {
			s.words[i] = 0
		}
	}
	return s
}

// DifferenceWith removes every element of t from s and returns s.
func (s *Set) DifferenceWith(t *Set) *Set {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &^= t.words[i]
		}
	}
	return s
}

// Union returns a new set with the elements of s and t.
func Union(s, t *Set) *Set { return s.Clone().UnionWith(t) }

// Intersect returns a new set with the elements common to s and t.
func Intersect(s, t *Set) *Set { return s.Clone().IntersectWith(t) }

// Difference returns a new set with the elements of s not in t.
func Difference(s, t *Set) *Set { return s.Clone().DifferenceWith(t) }

// Intersects reports whether s and t share at least one element.
func (s *Set) Intersects(t *Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same elements.
func (s *Set) Equal(t *Set) bool {
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		var sw, tw uint64
		if i < len(s.words) {
			sw = s.words[i]
		}
		if i < len(t.words) {
			tw = t.words[i]
		}
		if sw != tw {
			return false
		}
	}
	return true
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Range calls yield for each element in increasing order. Iteration
// stops early if yield returns false.
func (s *Set) Range(yield func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !yield(wi*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Slice returns the elements in increasing order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Len())
	s.Range(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Key returns a canonical string encoding of the set contents,
// suitable for use as a map key. Trailing zero words do not affect
// the key, so equal sets always produce equal keys.
func (s *Set) Key() string {
	end := len(s.words)
	for end > 0 && s.words[end-1] == 0 {
		end--
	}
	var b strings.Builder
	b.Grow(end * 17)
	for i := 0; i < end; i++ {
		b.WriteString(strconv.FormatUint(s.words[i], 16))
		b.WriteByte(',')
	}
	return b.String()
}

// Words is a fixed-capacity dense bit set over a small universe
// [0, k), backed by caller-provided storage (typically a slice of a
// shared scratch arena). Unlike Set, Words never grows and its
// operations never allocate: it is the currency of the
// component-local hot paths (Bron–Kerbosch, winnow simulation), where
// k is a component size rather than the instance size. All binary
// operations require operands of equal length.
type Words []uint64

// WordsLen returns the number of uint64 words needed to hold a
// universe of k elements.
func WordsLen(k int) int { return (k + wordBits - 1) / wordBits }

// Add inserts i. The caller must ensure i < len(w)*64.
func (w Words) Add(i int) { w[i/wordBits] |= 1 << uint(i%wordBits) }

// Remove deletes i.
func (w Words) Remove(i int) { w[i/wordBits] &^= 1 << uint(i%wordBits) }

// Has reports whether i is in the set.
func (w Words) Has(i int) bool { return w[i/wordBits]&(1<<uint(i%wordBits)) != 0 }

// Empty reports whether the set has no elements.
func (w Words) Empty() bool {
	for _, x := range w {
		if x != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements.
func (w Words) Clear() {
	for i := range w {
		w[i] = 0
	}
}

// Fill sets w to {0, ..., k-1}. k must not exceed the capacity.
func (w Words) Fill(k int) {
	w.Clear()
	for i := 0; i < k/wordBits; i++ {
		w[i] = ^uint64(0)
	}
	if r := k % wordBits; r != 0 {
		w[k/wordBits] = (1 << uint(r)) - 1
	}
}

// Copy overwrites w with src (equal lengths).
func (w Words) Copy(src Words) { copy(w, src) }

// IntersectInto sets dst = a ∩ b (equal lengths) and returns |dst|.
func IntersectInto(dst, a, b Words) int {
	n := 0
	for i := range dst {
		x := a[i] & b[i]
		dst[i] = x
		n += bits.OnesCount64(x)
	}
	return n
}

// AndNotInto sets dst = a \ b (equal lengths).
func AndNotInto(dst, a, b Words) {
	for i := range dst {
		dst[i] = a[i] &^ b[i]
	}
}

// Range calls yield for each element in increasing order, stopping
// early if yield returns false.
func (w Words) Range(yield func(i int) bool) {
	for wi, x := range w {
		for x != 0 {
			b := bits.TrailingZeros64(x)
			if !yield(wi*wordBits + b) {
				return
			}
			x &^= 1 << uint(b)
		}
	}
}

// ToSet copies the contents into a fresh growable Set.
func (w Words) ToSet() *Set {
	s := &Set{words: make([]uint64, len(w))}
	copy(s.words, w)
	return s
}

// String renders the set as "{e1 e2 ...}" in increasing order.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.Range(func(i int) bool {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		b.WriteString(strconv.Itoa(i))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
