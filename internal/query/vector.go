package query

import (
	"sync"

	"prefcqa/internal/bitset"
	"prefcqa/internal/relation"
)

// Vectorized batch execution: the runtime of every planned EXISTS.
//
//   - Candidates are tuple IDs, never tuples. Operators read cells
//     straight from the instance's typed columns (relation.Col) and
//     probe the partition on one attribute for a value's posting
//     (Instance.Posting, ascending, into a buffer the run owns),
//     filtering visibility (tombstones, repair subset) per ID.
//   - Bindings live in a flat []relation.Value indexed by the
//     quantifier's variable positions — no map operations on the hot
//     path, no per-row allocation.
//   - Residual comparisons over constants and quantified variables are
//     compiled to vecCmp checks evaluated as soon as their operands
//     are bound; only residuals the vector runtime cannot express
//     (negations, disjunctions, nested quantifiers) fall back to the
//     tree-walking evaluator, and only for rows that survived
//     everything else.
//   - The run state (vecRun: the flat binding array, key buffer,
//     bitset.Words mask arena and posting buffers, plus the plan,
//     environment and stats record of the run in progress) is pooled
//     and reused across evaluations, so a steady-state Eval allocates
//     only the small compile-time plan structures.
//
// A compiled block (compileBlock, plan.go) runs behind one seam: the
// executor interface. An executor owns its join strategy and nothing
// else — greedy nested loops here, semijoin reduction for acyclic
// spines in yannakakis.go, the generic join for cyclic ones in wcoj.go.
// Candidate iteration (vecRun.scan: access path, visibility, row
// counts, the cancellation tick), the base selection of the order-free
// executors (vecRun.base), comparison scheduling (pushDown, lastLevel)
// and the end of a binding (vecRun.finish, with the emit hook) exist
// once and are shared. Active-domain iteration (EvalNaive) is the
// oracle the differential tests pin all three executors against.

// vecOperand is a value an atom position or a comparison reads: a
// compile-time constant or environment binding (varIdx < 0, use val),
// or a block variable (read vals[varIdx] once it is bound).
type vecOperand struct {
	varIdx int
	val    relation.Value
}

func (o *vecOperand) value(vals []relation.Value) relation.Value {
	if o.varIdx >= 0 {
		return vals[o.varIdx]
	}
	return o.val
}

// vecProbe is one atom position with a value available for an index
// probe or an equality check when the atom's candidates are scanned.
type vecProbe struct {
	pos int
	vecOperand
}

// vecOp is one quantified-variable position of an atom, in argument
// order: bind writes the column cell into the flat binding array, a
// non-bind op checks the cell against the already-bound value.
type vecOp struct {
	pos    int
	varIdx int
	bind   bool
}

// vecCmp is a residual comparison whose operands are constants,
// environment values, or quantified variables — checkable from the
// flat binding array the moment its last operand is bound.
type vecCmp struct {
	op   CmpOp
	l, r vecOperand
}

// holds is called per scanned row, so it takes the comparison by
// pointer: a vecCmp is too large to pass in registers, and a copy to
// the stack on every call made the scan's speed depend on where the
// calling goroutine's stack happened to lie (an open-query spine ran 3x
// slower in a server's connection goroutine than in a test's).
func (c *vecCmp) holds(vals []relation.Value) bool {
	return cmpHolds(c.op, c.l.value(vals), c.r.value(vals))
}

// lastLevel is the level — greedy step, join-forest node or generic-join
// variable — at which the comparison's last operand is bound, levelOf
// giving the level that binds each block variable.
func (c vecCmp) lastLevel(levelOf []int) int {
	at := 0
	for _, o := range [2]vecOperand{c.l, c.r} {
		if o.varIdx >= 0 {
			at = max(at, levelOf[o.varIdx])
		}
	}
	return at
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
// base selection applies these before any join work.
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
	// available to the order-free base selection.
	sel []vecProbe
	// ops: quantified-var positions in argument order (greedy path).
	ops []vecOp
	// intraEq: (pos, firstPos) pairs for a variable repeated within
	// this atom (order-free form of the ops check).
	intraEq [][2]int
	// pushed: residual comparisons local to this atom (pushDown).
	pushed []vecCmpPos

	vars    []int // distinct quantified vars, first-occurrence order
	varPos  []int // first occurrence position per vars entry
	card    int
	estBase int // estimated base candidates after compile-known selections
}

// posOf returns the first argument position of the block variable in
// the atom, or -1 when the atom does not mention it.
func (a *vecAtom) posOf(varIdx int) int {
	for k, x := range a.vars {
		if x == varIdx {
			return a.varPos[k]
		}
	}
	return -1
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

// executor is the seam a compiled block runs behind: one join strategy
// over the plan's atoms, reading and filling the run state. run reports
// whether a satisfying binding exists — or, with an emit hook attached,
// whether the hook stopped the enumeration.
type executor interface {
	name() string
	run(r *vecRun) (bool, error)
}

// vecPlan is the vectorized compilation of one existential block.
type vecPlan struct {
	ev      *evaluator
	plan    *Plan
	atoms   []vecAtom // in the plan's step order
	vars    []string
	cmpsAt  [][]vecCmp // greedy: cmps checkable after step i's binds
	complex []Expr     // residuals needing the tree-walking evaluator
	// constFalse: a residual over compile-known values already failed.
	constFalse bool

	// exec is the executor chooseExecutor picked, on the comparison of
	// greedyCost with linearCost.
	exec       executor
	greedyCost int
	linearCost int

	// emit, when set, turns the boolean EXISTS run into an enumeration:
	// finish calls it with every satisfying flat binding instead of
	// returning true on the first. Returning true stops the search
	// (propagated as the run's result); false asks for more bindings.
	emit func(vals []relation.Value) (bool, error)
}

// chooseExecutor compares the nested-loop cost with the linear one.
// Greedy cost models the nested-loop product: each step runs once per
// surviving outer binding and yields EstRows candidates. The linear
// cost is the sum of the atoms' base candidates: every Yannakakis
// reduction pass re-walks them, and the generic join's intersections
// only shrink them. When it wins (ties included: its passes are tight
// column loops with no per-binding bookkeeping) a multi-atom spine runs
// on Yannakakis if GYO ear removal finds a join forest and on the
// generic join if not — a spine is acyclic or cyclic, so the two never
// compete.
func (v *vecPlan) chooseExecutor(cross []vecCmp) {
	const costCap = 1 << 40
	prod := 1
	for _, s := range v.plan.Steps {
		v.greedyCost += prod * s.EstRows
		if v.greedyCost > costCap {
			v.greedyCost = costCap
			break
		}
		if s.EstRows > 0 {
			prod *= s.EstRows
		}
		prod = min(prod, costCap)
	}
	for i := range v.atoms {
		v.linearCost = min(v.linearCost+v.atoms[i].estBase, costCap)
	}
	v.exec = greedyExec{}
	if len(v.atoms) < 2 || v.ev.greedyOnly || v.linearCost > v.greedyCost {
		return
	}
	if y := v.compileYan(cross); y != nil {
		v.exec = y
	} else {
		v.exec = v.compileWcoj(cross)
	}
}

// pushDown moves every comparison whose variables all occur in one atom
// into that atom's base selection (resolved to its column positions)
// and returns the comparisons spanning atoms, which the executor
// schedules at the level binding their last operand (lastLevel).
func (v *vecPlan) pushDown(cross []vecCmp) (spanning []vecCmp) {
next:
	for _, c := range cross {
		for i := range v.atoms {
			a := &v.atoms[i]
			pc := vecCmpPos{op: c.op, lPos: -1, rPos: -1, lVal: c.l.val, rVal: c.r.val}
			if c.l.varIdx >= 0 {
				pc.lPos = a.posOf(c.l.varIdx)
			}
			if c.r.varIdx >= 0 {
				pc.rPos = a.posOf(c.r.varIdx)
			}
			if (c.l.varIdx < 0 || pc.lPos >= 0) && (c.r.varIdx < 0 || pc.rPos >= 0) {
				a.pushed = append(a.pushed, pc)
				continue next
			}
		}
		spanning = append(spanning, c)
	}
	return spanning
}

// vecRun is the state of one plan run: the pooled scratch — the flat
// binding array, the join-key buffer, and the word arena backing the
// Yannakakis candidate masks, reused across evaluations so the
// steady-state hot path does not allocate — and what the run in
// progress reads: its plan, the environment around the quantifier and
// the stats record (nil: no stats collection).
type vecRun struct {
	vals  []relation.Value
	key   []byte
	arena []uint64
	posts [][]relation.TupleID // per atom: the buffer scan reads its posting into

	v    *vecPlan
	env  map[string]relation.Value
	exec *PlanExec
}

var vecRunPool = sync.Pool{New: func() any { return new(vecRun) }}

// masks carves one cleared bitset.Words mask per requested universe
// size out of the shared arena.
func (r *vecRun) masks(sizes []int) []bitset.Words {
	total := 0
	for _, n := range sizes {
		total += bitset.WordsLen(n)
	}
	if cap(r.arena) < total {
		r.arena = make([]uint64, total)
	}
	r.arena = r.arena[:total]
	out := make([]bitset.Words, len(sizes))
	off := 0
	for i, n := range sizes {
		w := bitset.WordsLen(n)
		out[i] = bitset.Words(r.arena[off : off+w])
		out[i].Clear()
		off += w
	}
	return out
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
	if exec != nil {
		exec.Executor = v.exec.name()
		exec.linearCost, exec.GreedyCost = v.linearCost, v.greedyCost
		exec.Batch = make([]BatchStat, len(v.atoms))
	}
	shadowed := shadowVars(env, v.vars)
	r := vecRunPool.Get().(*vecRun)
	r.v, r.env, r.exec = v, env, exec
	if cap(r.vals) < len(v.vars) {
		r.vals = make([]relation.Value, len(v.vars))
	}
	r.vals = r.vals[:len(v.vars)]
	clear(r.vals)
	for len(r.posts) < len(v.atoms) {
		r.posts = append(r.posts, nil)
	}
	res, err := v.exec.run(r)
	r.v, r.env, r.exec = nil, nil, nil
	vecRunPool.Put(r)
	unshadowVars(env, shadowed)
	return res, err
}

// scan iterates the candidates of atom ai: the IDs of the shortest
// posting among the probes — each has its value in hand: compile-known,
// or bound by an earlier greedy step — or the full ID range when there
// is none, in ascending order either way; filtered to the model's view,
// counted, ticked for cancellation, and checked against the probes the
// posting does not already guarantee. visit gets each survivor and
// stops the scan by returning true or an error, which scan returns.
// The posting is read into the run's buffer for ai: a scan of atom ai
// never runs inside another scan of ai.
func (r *vecRun) scan(ai int, probes []vecProbe, visit func(id relation.TupleID) (bool, error)) (bool, error) {
	a, ev, vals := &r.v.atoms[ai], r.v.ev, r.vals
	var stat *BatchStat // nil: no stats collection
	if r.exec != nil {
		stat = &r.exec.Batch[ai]
		stat.Batches++
	}
	probeIdx, last := -1, a.n
	switch len(probes) {
	case 0:
	case 1:
		probeIdx = 0
	default:
		best := 0
		for k := range probes {
			if n := a.inst.IndexEstimate(probes[k].pos, probes[k].value(vals)); probeIdx < 0 || n < best {
				probeIdx, best = k, n
			}
		}
	}
	var posting []relation.TupleID
	if probeIdx >= 0 {
		posting = a.inst.Posting(r.posts[ai][:0], probes[probeIdx].pos, probes[probeIdx].value(vals))
		r.posts[ai], last = posting, len(posting)
	}
candidates:
	for i := 0; i < last; i++ {
		id := i
		if probeIdx >= 0 {
			id = posting[i]
		}
		if !a.visibleID(id) {
			continue
		}
		if err := ev.tick(); err != nil {
			return false, err
		}
		if stat != nil {
			stat.IDs++
			r.exec.ActRows[ai]++
		}
		for k := range probes {
			if k != probeIdx && !a.cols[probes[k].pos].Equals(id, probes[k].value(vals)) {
				continue candidates
			}
		}
		if stop, err := visit(id); err != nil || stop {
			return stop, err
		}
	}
	return false, nil
}

// base scans the atom's base candidates — every visible ID passing the
// compile-known equality selections, intra-atom variable repeats, and
// pushed-down comparisons, in ascending ID order — into admit, and
// returns how many there are. It is what an executor that does not
// follow the greedy order (Yannakakis, the generic join) starts from.
func (r *vecRun) base(ai int, admit func(id relation.TupleID)) (int, error) {
	a := &r.v.atoms[ai]
	cnt := 0
	_, err := r.scan(ai, a.sel, func(id relation.TupleID) (bool, error) {
		for _, eq := range a.intraEq {
			if !a.cols[eq[0]].EqualsCell(id, a.cols[eq[1]], id) {
				return false, nil
			}
		}
		for _, c := range a.pushed {
			if !c.holds(a, id) {
				return false, nil
			}
		}
		admit(id)
		cnt++
		return false, nil
	})
	if r.exec != nil {
		r.exec.Batch[ai].Base = cnt
	}
	return cnt, err
}

// greedyExec is the vectorized nested-loop join: the plan's step
// order, bindings in the flat array, comparisons checked the moment
// their operands are bound. Short-circuits on the first satisfying
// binding.
type greedyExec struct{}

func (greedyExec) name() string { return ExecGreedyVec }

func (greedyExec) run(r *vecRun) (bool, error) { return r.stepGreedy(0) }

func (r *vecRun) stepGreedy(si int) (bool, error) {
	v := r.v
	if si == len(v.atoms) {
		return r.finish()
	}
	a := &v.atoms[si]
	return r.scan(si, a.probes, func(id relation.TupleID) (bool, error) {
		for k := range a.ops {
			op := &a.ops[k]
			if op.bind {
				r.vals[op.varIdx] = a.cols[op.pos].Value(id)
			} else if !a.cols[op.pos].Equals(id, r.vals[op.varIdx]) {
				return false, nil
			}
		}
		for i := range v.cmpsAt[si] {
			if !v.cmpsAt[si][i].holds(r.vals) {
				return false, nil
			}
		}
		if r.exec != nil {
			r.exec.Batch[si].Out++
		}
		return r.stepGreedy(si + 1)
	})
}

// finish ends a completed binding: it runs the residuals the vector
// runtime cannot express, under a real environment built from the flat
// bindings — only for rows that survived every vectorized check. With
// an emit hook attached, a surviving binding is handed to the hook
// instead of ending the search: the hook's result decides whether to
// stop.
func (r *vecRun) finish() (bool, error) {
	v := r.v
	if len(v.complex) > 0 {
		for i, name := range v.vars {
			r.env[name] = r.vals[i]
		}
		res := true
		var err error
		for _, c := range v.complex {
			var ok bool
			ok, err = v.ev.eval(c, r.env)
			if err != nil || !ok {
				res = false
				break
			}
		}
		for _, name := range v.vars {
			delete(r.env, name)
		}
		if err != nil || !res {
			return false, err
		}
	}
	if v.emit != nil {
		return v.emit(r.vals)
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
