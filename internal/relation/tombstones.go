package relation

import "prefcqa/internal/bitset"

// tombShift sizes a tombstone chunk: 1<<tombShift tuple IDs, 512 bytes.
const tombShift = 12

// tombstones is the set of deleted tuple IDs of one instance version,
// in chunks of 1<<tombShift IDs (nil: nothing deleted in the chunk; the
// zero value: nothing deleted). The versions of a chain share the chunk
// table and the chunks: neither is written once it is part of a value
// — with returns a new table and a new copy of the one chunk it sets a
// bit in — so a fork costs nothing, a delete the table plus one chunk
// however many tombstones there are, and a read two loads.
type tombstones []bitset.Words

// has reports whether id (not negative) is deleted.
func (t tombstones) has(id TupleID) bool {
	c := id >> tombShift
	return c < len(t) && t[c] != nil && t[c].Has(id&(1<<tombShift-1))
}

// with returns t ∪ {id}; t is left as it was.
func (t tombstones) with(id TupleID) tombstones {
	c := id >> tombShift
	out := make(tombstones, max(len(t), c+1))
	copy(out, t)
	chunk := make(bitset.Words, bitset.WordsLen(1<<tombShift))
	copy(chunk, out[c])
	chunk.Add(id & (1<<tombShift - 1))
	out[c] = chunk
	return out
}

// flat returns the tombstones as one independent bit set over [0, n).
func (t tombstones) flat(n int) *bitset.Set {
	s := bitset.New(n)
	for c, chunk := range t {
		chunk.Range(func(i int) bool {
			s.Add(c<<tombShift + i)
			return true
		})
	}
	return s
}
