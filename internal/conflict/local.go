package conflict

import "sort"

// Local is the projection of the conflict graph onto one connected
// component (or, generally, any sorted vertex subset): vertices are
// renumbered to the dense local range [0, k) in sorted order, and the
// induced adjacency is stored in CSR form over local indices.
//
// All per-component evaluation — Bron–Kerbosch enumeration, the
// optimality conditions, Algorithm 1's outcome search — runs in this
// local index space, so scratch state costs O(k) bits instead of O(n):
// the renumbering is order-preserving, which keeps every local
// computation bit-for-bit equivalent (after lifting) to the same
// computation on global IDs.
type Local struct {
	g     *Graph
	verts []int   // sorted global TupleIDs; local i ↔ verts[i]
	off   []int32 // CSR offsets, len k+1
	nbrs  []int32 // local neighbor indices, ascending per row
}

// Project builds the local view of the subgraph induced by comp, a
// sorted vertex list. When comp is a full connected component (the
// common case — Components() output), every global neighbor is a
// member and projection is a single linear renumbering pass; arbitrary
// subsets filter non-members out.
func (g *Graph) Project(comp []int) *Local {
	k := len(comp)
	l := &Local{g: g, verts: comp, off: make([]int32, k+1)}
	// A sorted vertex list is a full component iff it is non-empty and
	// equals the registered component of its first vertex.
	full := false
	if k > 0 {
		c := g.Component(g.ComponentOf(comp[0]))
		if len(c) == k {
			full = true
			for i := range c {
				if c[i] != comp[i] {
					full = false
					break
				}
			}
		}
	}
	if full {
		size := 0
		for _, v := range comp {
			size += g.Degree(v)
		}
		l.nbrs = make([]int32, 0, size)
		for i, v := range comp {
			for _, u := range g.Neighbors(v) {
				l.nbrs = append(l.nbrs, int32(g.LocalIndexOf(int(u))))
			}
			l.off[i+1] = int32(len(l.nbrs))
		}
		return l
	}
	for i, v := range comp {
		for _, u := range g.Neighbors(v) {
			j := sort.SearchInts(comp, int(u))
			if j < k && comp[j] == int(u) {
				l.nbrs = append(l.nbrs, int32(j))
			}
		}
		l.off[i+1] = int32(len(l.nbrs))
	}
	return l
}

// Len returns the number of local vertices k.
func (l *Local) Len() int { return len(l.verts) }

// Global returns the global TupleID of local vertex i.
func (l *Local) Global(i int) int { return l.verts[i] }

// Neighbors returns the local indices adjacent to local vertex i,
// ascending. The caller must not mutate the result.
func (l *Local) Neighbors(i int) []int32 { return l.nbrs[l.off[i]:l.off[i+1]] }

// Offset returns the index of vertex i's first adjacency entry in the
// flat CSR array — the base for per-entry parallel annotations (the
// priority projection stores one orientation byte per entry).
func (l *Local) Offset(i int) int { return int(l.off[i]) }

// Degree returns the induced degree of local vertex i.
func (l *Local) Degree(i int) int { return int(l.off[i+1] - l.off[i]) }
