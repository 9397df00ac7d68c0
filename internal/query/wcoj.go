package query

import (
	"sort"

	"prefcqa/internal/relation"
)

// Worst-case-optimal (generic) join execution for cyclic spines.
//
// When GYO ear removal finds no join tree (triangles, cliques,
// bowties), any plan built from binary joins can materialize
// intermediate results polynomially larger than the final output —
// the AGM bound is attainable only by joining all atoms at once, one
// variable at a time. This file adds that operator on the batch
// currency of vector.go:
//
//   - Per-atom candidate sets are ascending tuple-ID slices, seeded by
//     the base selection the Yannakakis executor starts from too
//     (vecRun.base: visibility, compile-known equality probes,
//     intra-atom repeats, pushed-down comparisons).
//   - Variables are resolved one at a time, most-constrained first.
//     The candidate values of a variable come from the smallest
//     containing atom — the relation's cached sorted distinct-value
//     iterator when that atom's base is the unfiltered relation, a
//     sort-dedup pass over its candidates otherwise — and each value
//     is confirmed by intersecting every containing atom's candidates
//     with the posting of that value. Intersections are sorted-list
//     merges with binary-search galloping, cheapest posting first, so
//     a value absent from any atom dies in one lookup without
//     touching the rest.
//   - Cross-atom residual comparisons run the moment their last
//     variable binds; complex residuals (negation, disjunction,
//     nested quantifiers) run under the completed binding via finish.
//
// chooseExecutor considers the operator only for cyclic multi-atom
// spines (compileYan found no join forest) whose base-candidates cost
// beats the greedy nested-loop estimate; evaluator.greedyOnly forces
// the greedy baseline, which the differential tests pin bit-for-bit
// against this path.

// wcojLevel is one variable of the generic join, in resolution order.
type wcojLevel struct {
	varIdx int      // index into vecPlan.vars / the flat binding array
	atoms  []int    // atoms containing the variable
	pos    []int    // the variable's first-occurrence position per atom
	cmps   []vecCmp // residual comparisons checkable once this binds
}

// wcojPlan is the compiled generic join of a cyclic spine.
type wcojPlan struct {
	levels []wcojLevel
}

// compileWcoj compiles the generic join of a cyclic spine. Variable
// order is most-constrained first (occurrence count descending, first
// occurrence breaking ties). Residual comparisons local to a single
// atom are pushed into that atom's base selection, exactly like the
// Yannakakis pushdown; the rest are scheduled at the level binding
// their last operand.
func (v *vecPlan) compileWcoj(cross []vecCmp) *wcojPlan {
	occ := make([]int, len(v.vars))
	for i := range v.atoms {
		for _, x := range v.atoms[i].vars {
			occ[x]++
		}
	}
	order := make([]int, len(v.vars))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return occ[order[a]] > occ[order[b]] })

	w := &wcojPlan{levels: make([]wcojLevel, len(order))}
	levelOf := make([]int, len(v.vars))
	for k, x := range order {
		lv := wcojLevel{varIdx: x}
		for ai := range v.atoms {
			if p := v.atoms[ai].posOf(x); p >= 0 {
				lv.atoms = append(lv.atoms, ai)
				lv.pos = append(lv.pos, p)
			}
		}
		levelOf[x] = k
		w.levels[k] = lv
	}
	for _, c := range v.pushDown(cross) {
		at := c.lastLevel(levelOf)
		w.levels[at].cmps = append(w.levels[at].cmps, c)
	}
	return w
}

func (w *wcojPlan) name() string { return ExecWCOJ }

// intersectSorted writes the intersection of two ascending TupleID
// slices into dst (overwritten from the start) and returns it. When
// the lengths are lopsided it gallops: walk the shorter side, binary
// search the longer, and drop the consumed prefix — O(small · log big)
// instead of O(small + big).
func intersectSorted(dst, a, b []relation.TupleID) []relation.TupleID {
	dst = dst[:0]
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= 8*len(a) {
		for _, id := range a {
			lo, hi := 0, len(b)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if b[mid] < id {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == len(b) {
				break
			}
			if b[lo] == id {
				dst = append(dst, id)
				lo++
			}
			b = b[lo:]
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// run executes the generic join: per-atom base candidate lists, then
// one variable per level, each candidate value confirmed by a multiway
// posting intersection across the atoms containing the variable.
func (w *wcojPlan) run(r *vecRun) (bool, error) {
	v, vals := r.v, r.vals
	m := len(v.atoms)
	cands := make([][]relation.TupleID, m)
	baseLen := make([]int, m)
	for i := 0; i < m; i++ {
		var base []relation.TupleID
		n, err := r.base(i, func(id relation.TupleID) { base = append(base, id) })
		if err != nil || n == 0 {
			return false, err
		}
		cands[i], baseLen[i] = base, n
	}

	var stats []WcojVarStat
	if r.exec != nil {
		stats = make([]WcojVarStat, len(w.levels))
		for k := range w.levels {
			stats[k] = WcojVarStat{Var: v.vars[w.levels[k].varIdx], Atoms: len(w.levels[k].atoms)}
		}
		r.exec.Wcoj = stats
	}

	// Per-level scratch, reused across sibling values of the level:
	// posting buffers, the intersection order, narrowed-candidate
	// output buffers, saved candidate lists, and the seed value buffer.
	type levelScratch struct {
		post   [][]relation.TupleID
		ord    []int
		narrow [][]relation.TupleID
		saved  [][]relation.TupleID
		vbuf   []relation.Value
	}
	lsc := make([]levelScratch, len(w.levels))
	for k := range lsc {
		na := len(w.levels[k].atoms)
		lsc[k] = levelScratch{
			post:   make([][]relation.TupleID, na),
			ord:    make([]int, na),
			narrow: make([][]relation.TupleID, na),
			saved:  make([][]relation.TupleID, na),
		}
	}

	var step func(k int) (bool, error)
	step = func(k int) (bool, error) {
		if k == len(w.levels) {
			return r.finish()
		}
		lv := &w.levels[k]
		ls := &lsc[k]

		// Seed: the containing atom with the fewest candidates.
		seed := 0
		for i := 1; i < len(lv.atoms); i++ {
			if len(cands[lv.atoms[i]]) < len(cands[lv.atoms[seed]]) {
				seed = i
			}
		}
		sa := &v.atoms[lv.atoms[seed]]

		// Candidate values in ascending Value.Order: the relation's
		// cached sorted distinct values when the seed atom's candidates
		// are still its unfiltered base (a chain-wide superset — a stale
		// value simply dies in its first posting intersection), a
		// sort-dedup pass over the candidate cells once upper levels
		// have narrowed it.
		var values []relation.Value
		if len(sa.sel) == 0 && len(sa.pushed) == 0 && len(sa.intraEq) == 0 && sa.visible == nil &&
			len(cands[lv.atoms[seed]]) == baseLen[lv.atoms[seed]] {
			values = sa.inst.SortedDistinctValues(lv.pos[seed])
		} else {
			buf := ls.vbuf[:0]
			col := sa.cols[lv.pos[seed]]
			for _, id := range cands[lv.atoms[seed]] {
				buf = append(buf, col.Value(id))
			}
			sort.Slice(buf, func(i, j int) bool { return buf[i].Order(buf[j]) < 0 })
			uniq := buf[:0]
			for i, val := range buf {
				if i == 0 || !val.Equal(uniq[len(uniq)-1]) {
					uniq = append(uniq, val)
				}
			}
			ls.vbuf = buf
			values = uniq
		}

		for _, val := range values {
			if err := v.ev.tick(); err != nil {
				return false, err
			}
			if stats != nil {
				stats[k].Values++
			}
			// Gather the postings; an empty one kills the value before
			// any intersection work.
			ok := true
			for i := range lv.atoms {
				if stats != nil {
					stats[k].Probes++
				}
				ls.post[i] = v.atoms[lv.atoms[i]].inst.Posting(ls.post[i][:0], lv.pos[i], val)
				if len(ls.post[i]) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Intersect cheapest posting first: the narrowed set only
			// shrinks, so a miss surfaces as early as possible.
			for i := range lv.atoms {
				ls.ord[i] = i
			}
			sort.Slice(ls.ord, func(x, y int) bool { return len(ls.post[ls.ord[x]]) < len(ls.post[ls.ord[y]]) })
			for _, i := range ls.ord {
				nw := intersectSorted(ls.narrow[i], cands[lv.atoms[i]], ls.post[i])
				ls.narrow[i] = nw
				if len(nw) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if stats != nil {
				stats[k].Matches++
			}
			vals[lv.varIdx] = val
			ok = true
			for i := range lv.cmps {
				if !lv.cmps[i].holds(vals) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for i, ai := range lv.atoms {
				ls.saved[i] = cands[ai]
				cands[ai] = ls.narrow[i]
			}
			found, err := step(k + 1)
			for i, ai := range lv.atoms {
				cands[ai] = ls.saved[i]
			}
			if err != nil || found {
				return found, err
			}
		}
		return false, nil
	}
	return step(0)
}
