package query

import (
	"fmt"
	"sync"

	"prefcqa/internal/bitset"
	"prefcqa/internal/relation"
)

// Vectorized batch execution: the runtime of every planned EXISTS.
//
//   - Candidates are tuple IDs, never tuples. Operators read cells
//     straight from the instance's typed columns (relation.Col) and
//     probe the secondary index's raw postings (PostingIDs), filtering
//     visibility (version prefix, tombstones, repair subset) per ID.
//   - Bindings live in a flat []relation.Value indexed by the
//     quantifier's variable positions — no map operations on the hot
//     path, no per-row allocation.
//   - Residual comparisons over constants and quantified variables are
//     compiled to vecCmp checks evaluated as soon as their operands
//     are bound; only residuals the vector runtime cannot express
//     (negations, disjunctions, nested quantifiers) fall back to the
//     tree-walking evaluator, and only for rows that survived
//     everything else.
//   - Scratch (the flat binding array, key buffers, the bitset.Words
//     mask arena used by the Yannakakis reducer) is pooled and reused
//     across evaluations, so a steady-state Eval allocates only the
//     small compile-time plan structures.
//
// On top of the batch runtime, yannakakis.go adds a semijoin-reduction
// executor for acyclic multi-atom queries and wcoj.go a generic join
// for cyclic ones; compileVec decides between them and the greedy
// nested-loop order by cost (see chooseExecutor). Active-domain
// iteration (EvalNaive) is the oracle the differential tests pin all
// three executors against.

// vecProbe is one atom position with a value available for an index
// probe or an equality check when the step runs: a compile-time
// constant or environment binding (varIdx < 0, use val), or a
// quantified variable bound by an earlier step (read vals[varIdx]).
type vecProbe struct {
	pos    int
	varIdx int
	val    relation.Value
}

// vecOp is one quantified-variable position of an atom, in argument
// order: bind writes the column cell into the flat binding array, a
// non-bind op checks the cell against the already-bound value.
type vecOp struct {
	pos    int
	varIdx int
	bind   bool
}

// vecOperand is one side of a compiled residual comparison.
type vecOperand struct {
	varIdx int // >= 0: read vals[varIdx]; < 0: literal
	val    relation.Value
}

func (o vecOperand) value(vals []relation.Value) relation.Value {
	if o.varIdx >= 0 {
		return vals[o.varIdx]
	}
	return o.val
}

// vecCmp is a residual comparison whose operands are constants,
// environment values, or quantified variables — checkable from the
// flat binding array the moment its last operand is bound.
type vecCmp struct {
	op   CmpOp
	l, r vecOperand
}

func (c vecCmp) holds(vals []relation.Value) bool {
	return cmpHolds(c.op, c.l.value(vals), c.r.value(vals))
}

// cmpHolds is the comparison semantics: EQ/NE on any kinds; order
// comparisons are only defined on N (§2), and since quantified
// variables range over the whole active domain, a name reaching one is
// simply false rather than an error.
func cmpHolds(op CmpOp, l, r relation.Value) bool {
	switch op {
	case EQ:
		return l.Equal(r)
	case NE:
		return !l.Equal(r)
	}
	if l.Kind() != relation.KindInt || r.Kind() != relation.KindInt {
		return false
	}
	cv, err := l.Compare(r)
	if err != nil {
		return false
	}
	switch op {
	case LT:
		return cv < 0
	case LE:
		return cv <= 0
	case GT:
		return cv > 0
	case GE:
		return cv >= 0
	}
	return false
}

// vecCmpPos is a comparison pushed down to a single atom: operands
// resolved to column positions of that atom (pos < 0: literal). The
// Yannakakis base build applies these before any join work.
type vecCmpPos struct {
	op         CmpOp
	lPos, rPos int
	lVal, rVal relation.Value
}

func (c vecCmpPos) holds(a *vecAtom, id relation.TupleID) bool {
	l, r := c.lVal, c.rVal
	if c.lPos >= 0 {
		l = a.cols[c.lPos].Value(id)
	}
	if c.rPos >= 0 {
		r = a.cols[c.rPos].Value(id)
	}
	return cmpHolds(c.op, l, r)
}

// vecAtom is one plan step compiled against its columnar backing.
type vecAtom struct {
	rel     string
	inst    *relation.Instance
	visible *bitset.Set
	n       int // inst.NumIDs(): the version's ID universe
	cols    []relation.Col

	// probes: positions usable as index probes when this step runs in
	// greedy order (compile-known values and vars bound earlier).
	probes []vecProbe
	// sel: the compile-known subset of probes — the only selections
	// available to the order-free Yannakakis base build.
	sel []vecProbe
	// ops: quantified-var positions in argument order (greedy path).
	ops []vecOp
	// intraEq: (pos, firstPos) pairs for a variable repeated within
	// this atom (order-free form of the ops check).
	intraEq [][2]int
	// pushed: residual comparisons local to this atom.
	pushed []vecCmpPos

	vars    []int // distinct quantified vars, first-occurrence order
	varPos  []int // first occurrence position per vars entry
	card    int
	estBase int // estimated base candidates after compile-known selections
}

// visibleID reports whether id is visible to this atom's model view:
// inside the version prefix, not tombstoned, and in the repair subset
// when one is attached.
func (a *vecAtom) visibleID(id relation.TupleID) bool {
	if !a.inst.Live(id) {
		return false
	}
	return a.visible == nil || a.visible.Has(id)
}

// vecPlan is the vectorized compilation of one existential plan.
type vecPlan struct {
	ev      *evaluator
	plan    *Plan
	atoms   []vecAtom
	vars    []string
	cmpsAt  [][]vecCmp // greedy: cmps checkable after step i's binds
	complex []Expr     // residuals needing the tree-walking evaluator
	// constFalse: a residual over compile-known values already failed.
	constFalse bool

	// Yannakakis data (nil/empty when the query is not acyclic or has
	// fewer than two atoms).
	yan        *yanPlan
	useYan     bool
	yanCost    int
	greedyCost int

	// Generic-join data (nil unless the spine is cyclic: compileWcoj
	// only runs when compileYan declined).
	wcoj     *wcojPlan
	useWcoj  bool
	wcojCost int

	// emit, when set, turns the boolean EXISTS run into an enumeration:
	// finish calls it with every satisfying flat binding instead of
	// returning true on the first. Returning true stops the search
	// (propagated as the run's result); false asks for more bindings.
	emit func(vals []relation.Value) (bool, error)
}

// vecScratch is the pooled per-evaluation scratch: the flat binding
// array, the join-key buffer, and the word arena backing the
// Yannakakis candidate masks. Reused across evaluations so the
// steady-state hot path does not allocate.
type vecScratch struct {
	vals  []relation.Value
	key   []byte
	arena []uint64
}

var vecScratchPool = sync.Pool{New: func() any { return new(vecScratch) }}

func (sc *vecScratch) bindings(n int) []relation.Value {
	if cap(sc.vals) < n {
		sc.vals = make([]relation.Value, n)
	}
	sc.vals = sc.vals[:n]
	for i := range sc.vals {
		sc.vals[i] = relation.Value{}
	}
	return sc.vals
}

// masks carves one cleared bitset.Words mask per requested universe
// size out of the shared arena.
func (sc *vecScratch) masks(sizes []int) []bitset.Words {
	total := 0
	for _, n := range sizes {
		total += bitset.WordsLen(n)
	}
	if cap(sc.arena) < total {
		sc.arena = make([]uint64, total)
	}
	sc.arena = sc.arena[:total]
	out := make([]bitset.Words, len(sizes))
	off := 0
	for i, n := range sizes {
		w := bitset.WordsLen(n)
		out[i] = bitset.Words(sc.arena[off : off+w])
		out[i].Clear()
		off += w
	}
	return out
}

// compileVec lowers a compiled (satisfiable) plan onto the model's
// columnar backing. An error is an internal one: compileExists has
// already checked every atom's relation and arity, and a closed
// formula binds every non-quantified variable before the quantifier
// is reached.
func (ev *evaluator) compileVec(p *Plan, env map[string]relation.Value) (*vecPlan, error) {
	v := &vecPlan{ev: ev, plan: p, vars: p.Vars}
	varIdx := make(map[string]int, len(p.Vars))
	for i, name := range p.Vars {
		varIdx[name] = i
	}
	firstBind := make([]int, len(p.Vars)) // step that first binds each var
	for i := range firstBind {
		firstBind[i] = -1
	}
	v.atoms = make([]vecAtom, len(p.Steps))
	for si := range p.Steps {
		a := &v.atoms[si]
		atom := p.Steps[si].Atom
		inst, visible, ok := ev.m.Backing(atom.Rel)
		if !ok {
			return nil, errUnknownRelation(atom.Rel)
		}
		a.rel = atom.Rel
		a.inst, a.visible, a.n = inst, visible, inst.NumIDs()
		a.card = ev.m.Card(atom.Rel)
		a.cols = make([]relation.Col, len(atom.Args))
		for i := range atom.Args {
			a.cols[i] = inst.Col(i)
		}
		firstPosHere := make(map[int]int, len(atom.Args))
		for i, t := range atom.Args {
			switch x := t.(type) {
			case Const:
				a.probes = append(a.probes, vecProbe{pos: i, varIdx: -1, val: x.Value})
				a.sel = append(a.sel, vecProbe{pos: i, varIdx: -1, val: x.Value})
			case Var:
				vi, quantified := varIdx[x.Name]
				if !quantified {
					val, bound := env[x.Name]
					if !bound {
						return nil, errUnbound(x.Name)
					}
					a.probes = append(a.probes, vecProbe{pos: i, varIdx: -1, val: val})
					a.sel = append(a.sel, vecProbe{pos: i, varIdx: -1, val: val})
					continue
				}
				if fp, repeat := firstPosHere[vi]; repeat {
					a.ops = append(a.ops, vecOp{pos: i, varIdx: vi})
					a.intraEq = append(a.intraEq, [2]int{i, fp})
					continue
				}
				firstPosHere[vi] = i
				if firstBind[vi] >= 0 {
					// Bound by an earlier step: a runtime probe and an
					// equality check in greedy order, a semijoin
					// constraint for Yannakakis.
					a.probes = append(a.probes, vecProbe{pos: i, varIdx: vi})
					a.ops = append(a.ops, vecOp{pos: i, varIdx: vi})
				} else {
					firstBind[vi] = si
					a.ops = append(a.ops, vecOp{pos: i, varIdx: vi, bind: true})
				}
				a.vars = append(a.vars, vi)
				a.varPos = append(a.varPos, i)
			default:
				return nil, fmt.Errorf("query: unknown term %T", t)
			}
		}
		a.estBase = a.card
		for _, s := range a.sel {
			if est := a.inst.IndexEstimate(s.pos, s.val); est < a.estBase {
				a.estBase = est
			}
		}
	}

	// Residual classification.
	v.cmpsAt = make([][]vecCmp, len(v.atoms))
	var cross []vecCmp // all compiled cmps, for the Yannakakis planner
	for _, r := range p.Residual {
		c, ok := r.(Cmp)
		if !ok {
			v.complex = append(v.complex, r)
			continue
		}
		operand := func(t Term) (vecOperand, int, bool) {
			switch x := t.(type) {
			case Const:
				return vecOperand{varIdx: -1, val: x.Value}, -1, true
			case Var:
				if vi, quantified := varIdx[x.Name]; quantified {
					return vecOperand{varIdx: vi}, firstBind[vi], true
				}
				if val, bound := env[x.Name]; bound {
					return vecOperand{varIdx: -1, val: val}, -1, true
				}
				return vecOperand{}, 0, false
			}
			return vecOperand{}, 0, false
		}
		l, ls, lok := operand(c.L)
		r2, rs, rok := operand(c.R)
		if !lok || !rok {
			// An unbound non-quantified variable: the residual's
			// evaluation reports it.
			v.complex = append(v.complex, r)
			continue
		}
		step := ls
		if rs > step {
			step = rs
		}
		vc := vecCmp{op: c.Op, l: l, r: r2}
		if step < 0 {
			// Fully known now: fold.
			if !cmpHolds(vc.op, vc.l.val, vc.r.val) {
				v.constFalse = true
			}
			continue
		}
		v.cmpsAt[step] = append(v.cmpsAt[step], vc)
		cross = append(cross, vc)
	}

	v.compileYan(cross)
	v.compileWcoj(cross)
	v.chooseExecutor()
	return v, nil
}

// chooseExecutor compares the cost of the two vectorized executors.
// Greedy cost models the nested-loop product: each step runs once per
// surviving outer binding and yields EstRows candidates. Yannakakis
// cost is linear in the base candidates of each atom (every reduction
// pass re-walks them). Ties go to Yannakakis: its passes are tight
// column loops with no per-binding bookkeeping.
func (v *vecPlan) chooseExecutor() {
	const costCap = 1 << 40
	prod, gCost := 1, 0
	for _, s := range v.plan.Steps {
		gCost += prod * s.EstRows
		if gCost > costCap {
			gCost = costCap
			break
		}
		if s.EstRows > 0 {
			prod *= s.EstRows
		}
		if prod > costCap {
			prod = costCap
		}
	}
	yCost := 0
	for i := range v.atoms {
		yCost += v.atoms[i].estBase
		if yCost > costCap {
			yCost = costCap
			break
		}
	}
	v.greedyCost, v.yanCost = gCost, yCost
	v.useYan = v.yan != nil && !v.ev.greedyOnly && yCost <= gCost
	// The generic join's work is likewise dominated by the per-atom base
	// candidates (each level's intersections only shrink them), so it
	// shares the linear cost estimate. compileWcoj only attaches a plan
	// when compileYan declined, so the two never compete.
	v.wcojCost = yCost
	v.useWcoj = v.wcoj != nil && !v.ev.greedyOnly && yCost <= gCost
}

// runVec executes the vectorized plan under env. Outer bindings
// shadowed by the quantifier are hidden for the duration of the run,
// matching active-domain quantifier semantics. exec may be nil (no
// stats collection).
func (ev *evaluator) runVec(v *vecPlan, exec *PlanExec, env map[string]relation.Value) (bool, error) {
	if v.constFalse {
		if exec != nil {
			exec.Executor = ExecGreedyVec
		}
		return false, nil
	}
	shadowed := shadowVars(env, v.vars)
	sc := vecScratchPool.Get().(*vecScratch)
	vals := sc.bindings(len(v.vars))
	var res bool
	var err error
	if v.useYan {
		if exec != nil {
			exec.Executor = ExecYannakakis
			exec.YanCost, exec.GreedyCost = v.yanCost, v.greedyCost
			exec.Batch = make([]BatchStat, len(v.atoms))
		}
		res, err = v.runYan(sc, exec, vals, env)
	} else if v.useWcoj {
		if exec != nil {
			exec.Executor = ExecWCOJ
			exec.WcojCost, exec.GreedyCost = v.wcojCost, v.greedyCost
			exec.Batch = make([]BatchStat, len(v.atoms))
		}
		res, err = v.runWcoj(sc, exec, vals, env)
	} else {
		if exec != nil {
			exec.Executor = ExecGreedyVec
			exec.YanCost, exec.GreedyCost = v.yanCost, v.greedyCost
			exec.Batch = make([]BatchStat, len(v.atoms))
		}
		res, err = v.stepGreedy(0, sc, exec, vals, env)
	}
	vecScratchPool.Put(sc)
	unshadowVars(env, shadowed)
	return res, err
}

// stepGreedy is the vectorized nested-loop join: the plan's step
// order, candidate IDs from raw index postings (or a full ID range),
// bindings in the flat array, comparisons checked the moment their
// operands are bound. Short-circuits on the first satisfying binding.
func (v *vecPlan) stepGreedy(si int, sc *vecScratch, exec *PlanExec, vals []relation.Value, env map[string]relation.Value) (bool, error) {
	if si == len(v.atoms) {
		return v.finish(vals, env)
	}
	a := &v.atoms[si]
	cmps := v.cmpsAt[si]

	// Pick the shortest posting among the positions with a value in
	// hand; fall back to the full ID range when none exist.
	probeIdx := -1
	var posting []relation.TupleID
	for k := range a.probes {
		pr := &a.probes[k]
		val := pr.val
		if pr.varIdx >= 0 {
			val = vals[pr.varIdx]
		}
		ids := a.inst.PostingIDs(pr.pos, val)
		if probeIdx < 0 || len(ids) < len(posting) {
			probeIdx, posting = k, ids
		}
	}
	if exec != nil {
		exec.Batch[si].Batches++
	}

	tryID := func(id relation.TupleID) (bool, error) {
		if err := v.ev.tick(); err != nil {
			return false, err
		}
		if exec != nil {
			exec.ActRows[si]++
			exec.Batch[si].IDs++
		}
		for k := range a.probes {
			if k == probeIdx {
				continue // the posting already guarantees equality
			}
			pr := &a.probes[k]
			val := pr.val
			if pr.varIdx >= 0 {
				val = vals[pr.varIdx]
			}
			if !a.cols[pr.pos].Equals(id, val) {
				return false, nil
			}
		}
		for k := range a.ops {
			op := &a.ops[k]
			if op.bind {
				vals[op.varIdx] = a.cols[op.pos].Value(id)
			} else if !a.cols[op.pos].Equals(id, vals[op.varIdx]) {
				return false, nil
			}
		}
		for _, c := range cmps {
			if !c.holds(vals) {
				return false, nil
			}
		}
		if exec != nil {
			exec.Batch[si].Out++
		}
		return v.stepGreedy(si+1, sc, exec, vals, env)
	}

	if probeIdx >= 0 {
		for _, id := range posting {
			if id >= a.n {
				break // appended by a newer version of the chain
			}
			if !a.visibleID(id) {
				continue
			}
			found, err := tryID(id)
			if err != nil || found {
				return found, err
			}
		}
		return false, nil
	}
	for id := 0; id < a.n; id++ {
		if !a.visibleID(id) {
			continue
		}
		found, err := tryID(id)
		if err != nil || found {
			return found, err
		}
	}
	return false, nil
}

// finish runs the residuals the vector runtime cannot express, under
// a real environment built from the flat bindings — only for rows
// that survived every vectorized check. With an emit hook attached,
// a surviving binding is handed to the hook instead of ending the
// search: the hook's result decides whether to stop.
func (v *vecPlan) finish(vals []relation.Value, env map[string]relation.Value) (bool, error) {
	if len(v.complex) > 0 {
		for i, name := range v.vars {
			env[name] = vals[i]
		}
		res := true
		var err error
		for _, c := range v.complex {
			var ok bool
			ok, err = v.ev.eval(c, env)
			if err != nil || !ok {
				res = false
				break
			}
		}
		for _, name := range v.vars {
			delete(env, name)
		}
		if err != nil || !res {
			return false, err
		}
	}
	if v.emit != nil {
		return v.emit(vals)
	}
	return true, nil
}

// shadowVars hides the quantifier's variables from the environment
// for the duration of a plan run, returning the saved outer bindings.
func shadowVars(env map[string]relation.Value, vars []string) []savedBinding {
	var shadowed []savedBinding
	for _, v := range vars {
		if val, ok := env[v]; ok {
			shadowed = append(shadowed, savedBinding{v, val})
			delete(env, v)
		}
	}
	return shadowed
}

func unshadowVars(env map[string]relation.Value, shadowed []savedBinding) {
	for _, s := range shadowed {
		env[s.name] = s.val
	}
}

type savedBinding struct {
	name string
	val  relation.Value
}
