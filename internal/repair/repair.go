// Package repair implements Definition 1: a repair of r w.r.t. F is a
// maximal subset of r consistent with F — equivalently, a maximal
// independent set of the conflict graph. The package checks repairs and
// enumerates them one connected component at a time (Bron–Kerbosch
// with pivoting on the complement graph) in component-local index
// space — scratch sets are k-bit for a k-vertex component and live in
// one preallocated arena, so the recursion allocates nothing per
// node. Package core composes the components, so instances like
// Example 4's r_n with 2^n repairs are counted without enumeration.
package repair

import (
	"errors"

	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
)

// ErrStopped is returned by enumeration functions when the yield
// callback asked to stop early.
var ErrStopped = errors.New("repair: enumeration stopped by caller")

// ErrOverflow is returned by the counts of package core when the
// number of repairs exceeds math.MaxInt64.
var ErrOverflow = errors.New("repair: repair count overflows int64")

// IsRepair reports whether s is a repair of the instance underlying g:
// an independent set such that every tuple outside s conflicts with
// some tuple of s. Runs in polynomial time (first row of Fig. 5).
func IsRepair(g *conflict.Graph, s *bitset.Set) bool {
	return g.IsMaximalIndependent(s)
}

// EnumerateLocal yields every maximal independent set of the local
// view, as a bitset.Words over local indices [0, k). The yielded set
// is reused between calls; copy it to retain. Returns ErrStopped if
// the yield callback returned false.
//
// The enumeration is Bron–Kerbosch with pivoting on the complement
// graph. All scratch state — the per-depth candidate/excluded/branch
// sets and the per-vertex vicinity masks — is carved out of a single
// arena allocated up front, so the recursion itself is allocation-free.
func EnumerateLocal(l *conflict.Local, yield func(bitset.Words) bool) error {
	k := l.Len()
	w := bitset.WordsLen(k)
	if k == 0 {
		if !yield(nil) {
			return ErrStopped
		}
		return nil
	}
	// Vicinity masks v(i) = {i} ∪ n(i), one k-bit row per vertex.
	vic := make([]uint64, k*w)
	vicOf := func(i int) bitset.Words { return bitset.Words(vic[i*w : (i+1)*w]) }
	for i := 0; i < k; i++ {
		m := vicOf(i)
		m.Add(i)
		for _, j := range l.Neighbors(i) {
			m.Add(int(j))
		}
	}
	// Arena: per depth (≤ k+1) a candidate set P, an excluded set X and
	// a branch set; plus the growing result R and one shared temp.
	slab := make([]uint64, (3*(k+2)+2)*w)
	frame := func(d, which int) bitset.Words {
		base := (3*d + which) * w
		return bitset.Words(slab[base : base+w])
	}
	r := bitset.Words(slab[3*(k+2)*w : (3*(k+2)+1)*w])
	tmp := bitset.Words(slab[(3*(k+2)+1)*w:])

	var rec func(d int, p, x bitset.Words) error
	rec = func(d int, p, x bitset.Words) error {
		if p.Empty() && x.Empty() {
			if !yield(r) {
				return ErrStopped
			}
			return nil
		}
		// Choose pivot u from P ∪ X with the smallest branch set
		// P ∩ v(u); branch on exactly those vertices.
		branch := frame(d, 2)
		best := -1
		pick := func(u int) bool {
			n := bitset.IntersectInto(tmp, p, vicOf(u))
			if best < 0 || n < best {
				best = n
				branch.Copy(tmp)
			}
			return best > 0 // can't do better than 0
		}
		p.Range(pick)
		if best != 0 {
			x.Range(pick)
		}
		np, nx := frame(d+1, 0), frame(d+1, 1)
		var err error
		branch.Range(func(v int) bool {
			// R ∪ {v}; new P and X lose v's vicinity (complement
			// neighborhood restriction).
			r.Add(v)
			bitset.AndNotInto(np, p, vicOf(v))
			bitset.AndNotInto(nx, x, vicOf(v))
			err = rec(d+1, np, nx)
			r.Remove(v)
			if err != nil {
				return false
			}
			p.Remove(v)
			x.Add(v)
			return true
		})
		return err
	}
	p0, x0 := frame(0, 0), frame(0, 1)
	p0.Fill(k)
	return rec(0, p0, x0)
}
