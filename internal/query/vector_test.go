package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/relation"
)

// acyclicCorpus is the query mix the vectorized differential tests
// pin: chains, stars, trees (Yannakakis-eligible), cyclic spines —
// shared pair, triangle, 4-clique, bowtie (generic-join-eligible) —
// plus residual comparisons and negation that force env
// materialization.
var acyclicCorpus = []string{
	"EXISTS a, b . R(a, b)",
	"EXISTS a, b, c . R(a, b) AND T(b, c)",
	"EXISTS a, b, c, d . R(a, b) AND T(b, c) AND S(c, d)",
	"EXISTS h, a, b . R(h, a) AND T(h, b)",
	"EXISTS h, a, b, c . R(h, a) AND T(h, b) AND T(b, c)",
	"EXISTS a, b, c, d . R(a, b) AND T(b, c) AND T(b, d) AND c < d",
	"EXISTS a, b . R(a, b) AND T(b, a)",
	"EXISTS a, b . R(a, b) AND T(a, b) AND a <= b",
	"EXISTS a, b, c . R(a, b) AND T(b, c) AND NOT S(c, 'n0')",
	"EXISTS a, b, c . R(0, a) AND T(a, b) AND S(b, c)",
	"FORALL a, b . NOT R(a, b) OR (EXISTS c . T(b, c))",
	"EXISTS a . R(a, a) AND T(a, a)",
	// Cyclic spines: triangle, triangle with a residual and with a
	// selective constant, kind-mismatched triangle through the name
	// column, 4-clique, bowtie (two triangles sharing vertex a).
	"EXISTS a, b, c . R(a, b) AND T(b, c) AND R(c, a)",
	"EXISTS a, b, c . R(a, b) AND T(b, c) AND R(c, a) AND a < c",
	"EXISTS a, b, c . R(a, b) AND T(b, c) AND R(c, a) AND R(1, a)",
	"EXISTS a, b, c . R(a, b) AND S(b, c) AND T(c, a)",
	"EXISTS a, b, c, d . R(a, b) AND R(a, c) AND R(a, d) AND T(b, c) AND T(b, d) AND R(c, d)",
	"EXISTS a, b, c, d, e . R(a, b) AND T(b, c) AND R(c, a) AND T(a, d) AND R(d, e) AND T(e, a)",
}

// mutableTriple is a three-relation database the differential tests
// mutate in place: R(A,B) and T(E,F) join on ints, S(C,D) carries a
// name column so kind mismatches occur.
type mutableTriple struct {
	db      *relation.Database
	r, s, t *relation.Instance
}

func newMutableTriple() *mutableTriple {
	db := relation.NewDatabase()
	r := relation.NewInstance(relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B")))
	s := relation.NewInstance(relation.MustSchema("S", relation.IntAttr("C"), relation.NameAttr("D")))
	tr := relation.NewInstance(relation.MustSchema("T", relation.IntAttr("E"), relation.IntAttr("F")))
	for _, inst := range []*relation.Instance{r, s, tr} {
		if err := db.AddInstance(inst); err != nil {
			panic(err)
		}
	}
	return &mutableTriple{db: db, r: r, s: s, t: tr}
}

// fork freezes the current head and redirects future mutations to a
// fresh version chain layer, returning the new head database.
func (m *mutableTriple) fork() {
	db := relation.NewDatabase()
	m.r = m.r.Fork()
	m.s = m.s.Fork()
	m.t = m.t.Fork()
	for _, inst := range []*relation.Instance{m.r, m.s, m.t} {
		if err := db.AddInstance(inst); err != nil {
			panic(err)
		}
	}
	m.db = db
}

func (m *mutableTriple) mutate(rng *rand.Rand) {
	for i := 0; i < 3+rng.Intn(5); i++ {
		switch rng.Intn(4) {
		case 0:
			m.r.MustInsert(rng.Intn(4), rng.Intn(4))
		case 1:
			m.t.MustInsert(rng.Intn(4), rng.Intn(4))
		case 2:
			m.s.MustInsert(rng.Intn(4), fmt.Sprintf("n%d", rng.Intn(2)))
		default:
			// Tombstone a random live tuple of a random relation: the
			// vectorized path must skip dead IDs in every posting.
			insts := []*relation.Instance{m.r, m.s, m.t}
			inst := insts[rng.Intn(len(insts))]
			if n := inst.NumIDs(); n > 0 {
				inst.Delete(rng.Intn(n))
			}
		}
	}
}

// evalGreedy is Eval with the Yannakakis and generic-join executors
// switched off: the greedy reference the differential tests and the
// executor benchmarks compare against.
func evalGreedy(e Expr, m Model) (bool, error) {
	return (&evaluator{m: m, root: annotated(e), join: true, greedyOnly: true}).run()
}

// checkCorpus requires the three strategies to agree bit-for-bit on
// every corpus query over m.
func checkCorpus(t *testing.T, tag string, m Model) {
	t.Helper()
	for _, src := range acyclicCorpus {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: parse %q: %v", tag, src, err)
		}
		planned, errP := Eval(q, m)
		greedy, errG := evalGreedy(q, m)
		naive, errN := EvalNaive(q, m)
		for _, e := range []error{errP, errG} {
			if (e == nil) != (errN == nil) {
				t.Fatalf("%s %q: error mismatch planned=%v greedy=%v naive=%v", tag, src, errP, errG, errN)
			}
		}
		if errN == nil && (planned != naive || greedy != naive) {
			t.Fatalf("%s %q: planned=%v greedy=%v naive=%v", tag, src, planned, greedy, naive)
		}
	}
}

// TestVectorizedDifferentialMutations pins Yannakakis and vectorized
// greedy evaluation bit-for-bit against naive active-domain iteration across batches of random inserts and
// deletes, both over the full database and over random visible
// subsets (the repair-checking shape).
func TestVectorizedDifferentialMutations(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newMutableTriple()
		for batch := 0; batch < 6; batch++ {
			m.mutate(rng)
			tag := fmt.Sprintf("seed %d batch %d", seed, batch)
			checkCorpus(t, tag, DBModel{DB: m.db})

			// Random subsets simulate repairs: visibility masks must
			// compose with tombstones and index postings.
			subs := map[string]*bitset.Set{}
			for _, inst := range []*relation.Instance{m.r, m.s, m.t} {
				sub := bitset.New(inst.NumIDs())
				inst.RangeIDs(func(id relation.TupleID) bool {
					if rng.Intn(3) != 0 {
						sub.Add(id)
					}
					return true
				})
				subs[inst.Schema().Name()] = sub
			}
			checkCorpus(t, tag+" subset", DBModel{DB: m.db, Subsets: subs})
		}
	}
}

// TestVectorizedDifferentialSnapshots forks a version chain and
// requires every pinned version to keep answering exactly as it did
// when it was the head, under all four strategies, while younger
// forks diverge.
func TestVectorizedDifferentialSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := newMutableTriple()
	type pinned struct {
		db  *relation.Database
		ans map[string]bool
	}
	var pins []pinned
	record := func(db *relation.Database) map[string]bool {
		ans := map[string]bool{}
		for _, src := range acyclicCorpus {
			q, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EvalNaive(q, DBModel{DB: db})
			if err != nil {
				t.Fatal(err)
			}
			ans[src] = got
		}
		return ans
	}
	for round := 0; round < 5; round++ {
		m.mutate(rng)
		pins = append(pins, pinned{db: m.db, ans: record(m.db)})
		// Freeze the head and continue mutating the fork.
		m.fork()
	}
	for i, p := range pins {
		model := DBModel{DB: p.db}
		checkCorpus(t, fmt.Sprintf("pin %d", i), model)
		for _, src := range acyclicCorpus {
			q, _ := Parse(src)
			got, err := Eval(q, model)
			if err != nil {
				t.Fatal(err)
			}
			if got != p.ans[src] {
				t.Fatalf("pin %d %q: answer drifted to %v after later forks", i, src, got)
			}
		}
	}
}

// TestVectorizedConcurrentSnapshotReads evaluates the corpus over a
// pinned version from many goroutines while the head fork keeps
// mutating (and lazily building shared index postings). Run under
// -race this pins the snapshot-consistency contract of the columnar
// store and the shared secondary indexes.
func TestVectorizedConcurrentSnapshotReads(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := newMutableTriple()
	for i := 0; i < 4; i++ {
		m.mutate(rng)
	}
	pinnedDB := m.db
	want := map[string]bool{}
	for _, src := range acyclicCorpus {
		q, _ := Parse(src)
		got, err := EvalNaive(q, DBModel{DB: pinnedDB})
		if err != nil {
			t.Fatal(err)
		}
		want[src] = got
	}
	m.fork()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			model := DBModel{DB: pinnedDB}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := acyclicCorpus[(g+i)%len(acyclicCorpus)]
				q, _ := Parse(src)
				eval := Eval
				if i%2 == 1 {
					eval = evalGreedy
				}
				got, err := eval(q, model)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d %q: %v", g, src, err)
					return
				}
				if got != want[src] {
					errs <- fmt.Errorf("goroutine %d %q: got %v want %v under concurrent mutation", g, src, got, want[src])
					return
				}
			}
		}(g)
	}
	wrng := rand.New(rand.NewSource(8))
	for i := 0; i < 40; i++ {
		m.mutate(wrng)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestYannakakisFiresOnAcyclicChain pins the executor choice and the
// EXPLAIN surface: a selective three-atom chain must run under the
// Yannakakis executor and Describe must carry per-step batch and
// semijoin stats, while a cyclic triangle must fall back to the
// vectorized greedy executor.
func TestYannakakisFiresOnAcyclicChain(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewInstance(relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B")))
	s := relation.NewInstance(relation.MustSchema("S", relation.IntAttr("C"), relation.IntAttr("D")))
	u := relation.NewInstance(relation.MustSchema("U", relation.IntAttr("E"), relation.IntAttr("F")))
	for i := 0; i < 64; i++ {
		r.MustInsert(i, i)
		s.MustInsert(i, i)
		u.MustInsert(i+64, i) // S and U share no join values
	}
	for _, inst := range []*relation.Instance{r, s, u} {
		if err := db.AddInstance(inst); err != nil {
			t.Fatal(err)
		}
	}
	m := DBModel{DB: db}

	chain := "EXISTS a, b, c, d . R(a, b) AND S(b, c) AND U(c, d)"
	q, err := Parse(chain)
	if err != nil {
		t.Fatal(err)
	}
	got, tr, err := EvalTrace(q, m)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatalf("chain %q should be empty (S and U share no values)", chain)
	}
	if len(tr.Execs) == 0 {
		t.Fatal("no executed plans traced")
	}
	exec := tr.Execs[0]
	if exec.Executor != ExecYannakakis {
		t.Fatalf("executor = %q, want %q\n%s", exec.Executor, ExecYannakakis, exec.Describe())
	}
	desc := exec.Describe()
	for _, want := range []string{ExecYannakakis, "batches", "semijoin", "cost yannakakis"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("Describe missing %q:\n%s", want, desc)
		}
	}

	triangle := "EXISTS a, b, c . R(a, b) AND S(b, c) AND U(c, a)"
	q, err = Parse(triangle)
	if err != nil {
		t.Fatal(err)
	}
	got, tr, err = EvalTrace(q, m)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatalf("triangle %q should be empty (U's first column is disjoint from R's)", triangle)
	}
	exec = tr.Execs[0]
	if exec.Executor != ExecWCOJ {
		t.Fatalf("triangle executor = %q, want %q\n%s", exec.Executor, ExecWCOJ, exec.Describe())
	}
	desc = exec.Describe()
	for _, want := range []string{ExecWCOJ, "cost wcoj", "wcoj a:", "values", "probes", "matches"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("Describe missing %q:\n%s", want, desc)
		}
	}

	// The greedy baseline must stay reachable for the cyclic shape.
	forced, err := evalGreedy(q, m)
	if err != nil {
		t.Fatal(err)
	}
	if forced != got {
		t.Fatalf("evalGreedy disagrees with WCOJ on %q: %v vs %v", triangle, forced, got)
	}
}

// emptyJoinRows is the size of each relation of the empty-join
// benchmarks.
const emptyJoinRows = 20_000

// emptyJoinModel builds R, S and T of emptyJoinRows rows each, row i of
// the three given by rows.
func emptyJoinModel(tb testing.TB, rows func(i int) [3][2]int) Model {
	db := relation.NewDatabase()
	var insts [3]*relation.Instance
	for k, name := range []string{"R", "S", "T"} {
		insts[k] = relation.NewInstance(relation.MustSchema(name, relation.IntAttr("X"), relation.IntAttr("Y")))
		if err := db.AddInstance(insts[k]); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < emptyJoinRows; i++ {
		for k, row := range rows(i) {
			insts[k].MustInsert(row[0], row[1])
		}
	}
	return DBModel{DB: db}
}

// The acyclic chain R(a,b) ⋈ S(b,c) ⋈ T(c,d) where S.c and T.c share no
// value: Yannakakis finds the emptiness in one bottom-up semijoin pass
// (T semijoin S empties T's mask) and never enumerates.
const emptyChain = "EXISTS a, b, c, d . R(a, b) AND S(b, c) AND T(c, d)"

func emptyChainRows(i int) [3][2]int {
	return [3][2]int{{i, i}, {i, i}, {i + emptyJoinRows, i}}
}

// The triangle R(a,b) ⋈ S(b,c) ⋈ T(c,a) over 1000 distinct values per
// join column (distinct pairs, fan-out rows/1000 per value) with T's a
// column offset past R's: GYO ear removal fails, and the generic join
// finds the emptiness at the first variable level — every candidate a
// has an empty T posting, so no (a, b) pair is ever enumerated.
const emptyTriangle = "EXISTS a, b, c . R(a, b) AND S(b, c) AND T(c, a)"

func emptyTriangleRows(i int) [3][2]int {
	const v = 1000
	lo, fan := i%v, (i%v+i/v)%v
	return [3][2]int{{lo, fan}, {lo, fan}, {lo, v + fan}}
}

// benchEmptyJoin times one closed three-atom query over an
// emptyJoinModel whose join is empty, so no executor can stop at a
// first witness: once on the executor the cost-based planner picks,
// which must be want, and once on forced greedy, which walks every R
// tuple probing S and T per tuple.
func benchEmptyJoin(b *testing.B, src, want string, rows func(i int) [3][2]int) {
	m := emptyJoinModel(b, rows)
	q := MustParse(src)
	run := func(b *testing.B, eval func(Expr, Model) (bool, error)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err := eval(q, m); err != nil || res {
				b.Fatalf("%v, %v", res, err)
			}
		}
	}
	b.Run(want, func(b *testing.B) {
		// Warm the lazily built indexes and pin the planner's choice.
		res, tr, err := EvalTrace(q, m)
		if err != nil || res {
			b.Fatalf("warmup: %v, %v", res, err)
		}
		if len(tr.Execs) == 0 || tr.Execs[0].Executor != want {
			b.Fatalf("planner did not choose the %s executor: %+v", want, tr.Execs)
		}
		run(b, Eval)
	})
	b.Run("greedy", func(b *testing.B) {
		if res, err := evalGreedy(q, m); err != nil || res {
			b.Fatalf("warmup: %v, %v", res, err)
		}
		run(b, evalGreedy)
	})
}

func BenchmarkEmptyChain(b *testing.B) {
	benchEmptyJoin(b, emptyChain, ExecYannakakis, emptyChainRows)
}

func BenchmarkEmptyTriangle(b *testing.B) {
	benchEmptyJoin(b, emptyTriangle, ExecWCOJ, emptyTriangleRows)
}

// cancelledAfterFirstCheck is live for the one check an evaluation makes
// before it starts and cancelled from then on: what a deadline that
// expires mid-join looks like to the evaluator's periodic sampling.
type cancelledAfterFirstCheck struct {
	context.Context
	checks int
}

func (c *cancelledAfterFirstCheck) Err() error {
	if c.checks++; c.checks == 1 {
		return nil
	}
	return context.Canceled
}

// TestExecutorsHonourCancellation: every executor samples the context
// as it iterates candidate rows — in base selections and semijoin
// passes as much as in the nested loop — so none of the three can walk
// 60 000 rows of an empty join past a cancellation and answer false.
func TestExecutorsHonourCancellation(t *testing.T) {
	for _, c := range []struct {
		src        string
		rows       func(i int) [3][2]int
		greedyOnly bool
		want       string
	}{
		{emptyChain, emptyChainRows, false, ExecYannakakis},
		{emptyTriangle, emptyTriangleRows, false, ExecWCOJ},
		{emptyChain, emptyChainRows, true, ExecGreedyVec},
	} {
		tr := &Trace{}
		ev := &evaluator{m: emptyJoinModel(t, c.rows), root: annotated(MustParse(c.src)), join: true, trace: tr,
			greedyOnly: c.greedyOnly, ctx: &cancelledAfterFirstCheck{Context: context.Background()}}
		res, err := ev.run()
		if len(tr.Execs) != 1 || tr.Execs[0].Executor != c.want {
			t.Fatalf("%s: ran on %+v, want %s", c.src, tr.Execs, c.want)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s on %s: %v, %v after inspecting %v rows; want context.Canceled",
				c.src, c.want, res, err, tr.Execs[0].ActRows)
		}
	}
}
