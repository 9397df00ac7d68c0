package priority

import (
	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
)

// Local is a priority projected onto a component-local view of the
// conflict graph (conflict.Local): for every directed CSR adjacency
// entry i→j of the view, Orient records whether the underlying
// conflict is oriented i ≻ j, j ≻ i, or not at all. Since priorities
// only orient conflict edges, this one byte per adjacency entry is
// the complete projection — the per-component evaluation hot paths
// (optimality conditions, Algorithm 1 simulation) read it with no
// global lookups and no allocation.
type Local struct {
	l      *conflict.Local
	orient []int8 // parallel to the view's CSR entries
}

const (
	// orientOut marks an entry i→j with i ≻ j.
	orientOut int8 = 1
	// orientIn marks an entry i→j with j ≻ i.
	orientIn int8 = -1
)

// Localize projects p onto the local view l. Cost is linear in the
// view's adjacency (each row is merged against the vertex's sorted
// successor and predecessor lists).
func (p *Priority) Localize(l *conflict.Local) *Local {
	pl := &Local{l: l}
	total := 0
	for i := 0; i < l.Len(); i++ {
		total += l.Degree(i)
	}
	pl.orient = make([]int8, total)
	e := 0
	for i := 0; i < l.Len(); i++ {
		v := l.Global(i)
		row := p.row(v)
		succ, pred := row.succ, row.pred
		si, pi := 0, 0
		for _, j := range l.Neighbors(i) {
			u := int32(l.Global(int(j)))
			// Rows and succ/pred lists are both ascending: advance the
			// two cursors to u.
			for si < len(succ) && succ[si] < u {
				si++
			}
			for pi < len(pred) && pred[pi] < u {
				pi++
			}
			switch {
			case si < len(succ) && succ[si] == u:
				pl.orient[e] = orientOut
			case pi < len(pred) && pred[pi] == u:
				pl.orient[e] = orientIn
			}
			e++
		}
	}
	return pl
}

// View returns the conflict-graph view the priority is projected on.
func (pl *Local) View() *conflict.Local { return pl.l }

// entryBase returns the CSR entry index of x's first neighbor.
func (pl *Local) entryBase(x int) int { return pl.l.Offset(x) }

// RangeNeighbors calls yield(j, o) for every neighbor j of local
// vertex x in ascending order, with o the orientation of the entry
// (+1: x ≻ j, -1: j ≻ x, 0: unoriented). Iteration stops early if
// yield returns false.
func (pl *Local) RangeNeighbors(x int, yield func(j int, o int8) bool) {
	base := pl.entryBase(x)
	for k, j := range pl.l.Neighbors(x) {
		if !yield(int(j), pl.orient[base+k]) {
			return
		}
	}
}

// UndominatedIn reports whether local vertex x has no dominator
// inside rest.
func (pl *Local) UndominatedIn(x int, rest *bitset.Set) bool {
	ok := true
	pl.RangeNeighbors(x, func(j int, o int8) bool {
		if o == orientIn && rest.Has(j) {
			ok = false
			return false
		}
		return true
	})
	return ok
}
