package query

import (
	"prefcqa/internal/bitset"
	"prefcqa/internal/relation"
)

// Yannakakis execution for acyclic multi-atom queries.
//
// A conjunctive query whose hypergraph (one hyperedge per atom, the
// atom's quantified variables) is α-acyclic admits a join tree, and
// Yannakakis' algorithm answers it without ever forming an
// intermediate join: a bottom-up pass semijoin-reduces each parent by
// its children, after which the boolean EXISTS answer is simply
// "every relation still has candidates". Only when residual
// comparisons span atoms (or a residual needs the tree-walking
// evaluator) does the executor complete the reduction with a top-down
// pass and enumerate — over the reduced candidate sets, where every
// partial binding is guaranteed to extend to at least one full match.
//
// The machinery runs entirely on the batch currency of vector.go:
// candidate sets are bitset.Words masks over the instance's tuple-ID
// universe (carved from the pooled run state's arena, filled by the
// shared base selection vecRun.base), semijoins hash the join-key cells
// straight out of the columns, and enumeration binds into the flat
// value array. Acyclicity is decided by GYO ear
// removal, which also yields the join forest and the bottom-up
// reduction order; disconnected queries need no special casing — an
// atom sharing no variables attaches with an empty join key, making
// its semijoin the "is it non-empty" test a cross product requires.

// yanEdge is one parent←child semijoin of the join forest, with the
// shared variables resolved to column positions on both sides
// (aligned by index).
type yanEdge struct {
	child, parent       int
	childPos, parentPos []int
}

// yanNode is one atom in enumeration preorder: parents before
// children, so a node's shared variables are always bound when its
// group lookup runs.
type yanNode struct {
	atom    int
	keyVars []int    // shared vars with parent (empty at a root)
	keyPos  []int    // their first-occurrence positions in this atom
	binds   []vecOp  // vars first bound here
	cmps    []vecCmp // cross-atom comparisons checkable after binds
}

// yanPlan is the compiled join forest of an acyclic query.
type yanPlan struct {
	edges []yanEdge // GYO removal order = bottom-up reduction order
	nodes []yanNode // enumeration preorder
	// pushedOnly: every residual was pushed into a single atom's base
	// selection, so the bottom-up pass alone decides the answer.
	pushedOnly bool
}

// compileYan runs GYO ear removal over the atoms' variable sets and,
// if the spine is acyclic, returns its yanPlan: join forest, semijoin
// edges, enumeration schedule, and residual pushdown (comparisons local
// to one atom move into its base selection; the rest are scheduled on
// the enumeration preorder). It returns nil for a cyclic spine.
func (v *vecPlan) compileYan(cross []vecCmp) *yanPlan {
	m := len(v.atoms)
	// GYO: repeatedly remove an ear — an edge whose variables shared
	// with any other live edge all fit inside a single live host. The
	// removal order doubles as the bottom-up semijoin order.
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	parent := make([]int, m)
	for i := range parent {
		parent[i] = -1
	}
	var order []int
	aliveCount := m
	for aliveCount > 1 {
		removed := false
		for i := 0; i < m && aliveCount > 1; i++ {
			if !alive[i] {
				continue
			}
			var shared []int
			for _, x := range v.atoms[i].vars {
				for j := 0; j < m; j++ {
					if j != i && alive[j] && v.atoms[j].posOf(x) >= 0 {
						shared = append(shared, x)
						break
					}
				}
			}
			host := -1
			for j := 0; j < m && host < 0; j++ {
				if j == i || !alive[j] {
					continue
				}
				all := true
				for _, x := range shared {
					if v.atoms[j].posOf(x) < 0 {
						all = false
						break
					}
				}
				if all {
					host = j
				}
			}
			if host >= 0 {
				parent[i] = host
				alive[i] = false
				aliveCount--
				order = append(order, i)
				removed = true
			}
		}
		if !removed {
			return nil // cyclic: no ear left — wcoj.go's generic join takes over
		}
	}

	y := &yanPlan{}
	for _, i := range order {
		e := yanEdge{child: i, parent: parent[i]}
		for k, x := range v.atoms[i].vars {
			if pp := v.atoms[parent[i]].posOf(x); pp >= 0 {
				e.childPos = append(e.childPos, v.atoms[i].varPos[k])
				e.parentPos = append(e.parentPos, pp)
			}
		}
		y.edges = append(y.edges, e)
	}

	// Enumeration preorder: root first, then children as discovered.
	root := -1
	for i := range alive {
		if alive[i] {
			root = i
		}
	}
	children := make([][]int, m)
	for _, i := range order {
		children[parent[i]] = append(children[parent[i]], i)
	}
	preAtoms := []int{root}
	for k := 0; k < len(preAtoms); k++ {
		preAtoms = append(preAtoms, children[preAtoms[k]]...)
	}

	bound := make([]int, len(v.vars)) // var → preorder node binding it
	for i := range bound {
		bound[i] = -1
	}
	y.nodes = make([]yanNode, len(preAtoms))
	for k, ai := range preAtoms {
		a := &v.atoms[ai]
		node := yanNode{atom: ai}
		for vi, x := range a.vars {
			if bound[x] < 0 {
				bound[x] = k
				node.binds = append(node.binds, vecOp{pos: a.varPos[vi], varIdx: x, bind: true})
			} else if parent[ai] >= 0 && v.atoms[parent[ai]].posOf(x) >= 0 {
				node.keyVars = append(node.keyVars, x)
				node.keyPos = append(node.keyPos, a.varPos[vi])
			}
			// A var bound by an ancestor is, by the running
			// intersection property, shared with the parent and thus
			// covered by the key; intra-atom repeats are enforced by
			// the base selection (intraEq).
		}
		y.nodes[k] = node
	}

	// A comparison spanning atoms waits for enumeration, at the first
	// node where all its operands are bound.
	spanning := v.pushDown(cross)
	for _, c := range spanning {
		at := c.lastLevel(bound)
		y.nodes[at].cmps = append(y.nodes[at].cmps, c)
	}
	y.pushedOnly = len(v.complex) == 0 && len(spanning) == 0
	return y
}

func (y *yanPlan) name() string { return ExecYannakakis }

// semijoinInto filters dst's candidate mask to the IDs whose join key
// appears among src's candidates. Returns dst's new candidate count.
// Single-int-column keys — the overwhelmingly common join shape — hash
// the raw cells into an int64 set; everything else falls back to the
// encoded byte-key set (whose inserts copy the key).
func (r *vecRun) semijoinInto(masks []bitset.Words, counts []int,
	src int, srcPos []int, dst int, dstPos []int) (int, error) {
	sa, da, ev := &r.v.atoms[src], &r.v.atoms[dst], r.v.ev
	removed := 0
	var err error
	if len(srcPos) == 1 && len(dstPos) == 1 &&
		sa.cols[srcPos[0]].Kind() == relation.KindInt &&
		da.cols[dstPos[0]].Kind() == relation.KindInt {
		sCol, dCol := sa.cols[srcPos[0]], da.cols[dstPos[0]]
		set := make(map[int64]struct{}, counts[src])
		masks[src].Range(func(id int) bool {
			set[sCol.Int(id)] = struct{}{}
			err = ev.tick()
			return err == nil
		})
		if err == nil {
			masks[dst].Range(func(id int) bool {
				if _, ok := set[dCol.Int(id)]; !ok {
					masks[dst].Remove(id)
					removed++
				}
				err = ev.tick()
				return err == nil
			})
		}
	} else {
		set := make(map[string]struct{}, counts[src])
		masks[src].Range(func(id int) bool {
			r.key = r.key[:0]
			for _, p := range srcPos {
				r.key = sa.cols[p].AppendKey(r.key, id)
			}
			if _, ok := set[string(r.key)]; !ok {
				set[string(r.key)] = struct{}{}
			}
			err = ev.tick()
			return err == nil
		})
		if err == nil {
			masks[dst].Range(func(id int) bool {
				r.key = r.key[:0]
				for _, p := range dstPos {
					r.key = da.cols[p].AppendKey(r.key, id)
				}
				if _, ok := set[string(r.key)]; !ok {
					masks[dst].Remove(id)
					removed++
				}
				err = ev.tick()
				return err == nil
			})
		}
	}
	counts[dst] -= removed
	if r.exec != nil {
		r.exec.Batch[dst].Batches++
	}
	return counts[dst], err
}

// run executes the Yannakakis plan: base masks, bottom-up semijoin
// reduction, and — only if residuals demand it — a top-down completion
// pass and enumeration over the fully reduced candidates.
func (y *yanPlan) run(r *vecRun) (bool, error) {
	v := r.v
	m := len(v.atoms)
	sizes := make([]int, m)
	for i := range sizes {
		sizes[i] = v.atoms[i].n
	}
	masks := r.masks(sizes)
	counts := make([]int, m)
	if r.exec != nil {
		// However the run ends, the surviving candidates are each step's Out.
		defer func() {
			for i := range counts {
				r.exec.Batch[i].Out = counts[i]
			}
		}()
	}
	for i := range v.atoms {
		var err error
		counts[i], err = r.base(i, func(id relation.TupleID) { masks[i].Add(id) })
		if err != nil || counts[i] == 0 {
			return false, err
		}
	}
	for _, e := range y.edges {
		if n, err := r.semijoinInto(masks, counts, e.child, e.childPos, e.parent, e.parentPos); err != nil || n == 0 {
			return false, err
		}
	}
	if y.pushedOnly && v.emit == nil {
		// Bottom-up reduction succeeded everywhere: the root's
		// surviving candidates each extend to a full match. (With an
		// emit hook attached the caller wants the bindings themselves,
		// so fall through to the completion pass and enumerate.)
		return true, nil
	}
	for k := len(y.edges) - 1; k >= 0; k-- {
		e := y.edges[k]
		if n, err := r.semijoinInto(masks, counts, e.parent, e.parentPos, e.child, e.childPos); err != nil || n == 0 {
			return false, err
		}
	}

	// Group each non-root node's reduced candidates by its join key.
	groups := make([]map[string][]relation.TupleID, len(y.nodes))
	for k := 1; k < len(y.nodes); k++ {
		node := &y.nodes[k]
		a := &v.atoms[node.atom]
		g := make(map[string][]relation.TupleID, counts[node.atom])
		masks[node.atom].Range(func(id int) bool {
			r.key = r.key[:0]
			for _, p := range node.keyPos {
				r.key = a.cols[p].AppendKey(r.key, id)
			}
			g[string(r.key)] = append(g[string(r.key)], id)
			return true
		})
		groups[k] = g
	}
	return r.yanEnum(y, 0, masks[y.nodes[0].atom], groups)
}

// yanEnum backtracks over the reduced candidates in preorder: the
// root's mask, then each node's group under the join key its parent
// bound. Every lookup hits a non-empty group unless a cross-atom
// comparison or complex residual rejected the partial binding, so the
// search space is the reduced relations, not the original ones.
func (r *vecRun) yanEnum(y *yanPlan, k int, root bitset.Words, groups []map[string][]relation.TupleID) (bool, error) {
	if k == len(y.nodes) {
		return r.finish()
	}
	node := &y.nodes[k]
	a := &r.v.atoms[node.atom]
	try := func(id relation.TupleID) (bool, error) {
		if err := r.v.ev.tick(); err != nil {
			return false, err
		}
		for i := range node.binds {
			r.vals[node.binds[i].varIdx] = a.cols[node.binds[i].pos].Value(id)
		}
		for i := range node.cmps {
			if !node.cmps[i].holds(r.vals) {
				return false, nil
			}
		}
		return r.yanEnum(y, k+1, root, groups)
	}
	if k == 0 {
		found := false
		var err error
		root.Range(func(id int) bool {
			found, err = try(id)
			return err == nil && !found
		})
		return found, err
	}
	r.key = r.key[:0]
	for _, vi := range node.keyVars {
		r.key = r.vals[vi].AppendKey(r.key)
	}
	for _, id := range groups[k][string(r.key)] {
		found, err := try(id)
		if err != nil || found {
			return found, err
		}
	}
	return false, nil
}
