package cqa

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"prefcqa/internal/conflict"
	"prefcqa/internal/core"
	"prefcqa/internal/fd"
	"prefcqa/internal/priority"
	"prefcqa/internal/query"
	"prefcqa/internal/relation"
)

// randomInput builds a random single-relation CQA input over R(A,B,C)
// with two FDs and a random priority.
func randomInput(t testing.TB, rng *rand.Rand, n int) Input {
	t.Helper()
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	inst := relation.NewInstance(s)
	for i := 0; i < n; i++ {
		inst.MustInsert(rng.Intn(3), rng.Intn(3), rng.Intn(3))
	}
	fds := fd.MustParseSet(s, "A -> B", "B -> C")
	g := conflict.MustBuild(inst, fds)
	in, err := NewInput(&Relation{Inst: inst, FDs: fds, Pri: priority.Random(g, 0.5, rng)})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestEvaluateEngineEquivalence: closed-query answers (ground and
// quantified, so both the pruned and the full evaluation paths) are
// identical between the sequential reference engine and parallel
// memoizing engines, for every family.
func TestEvaluateEngineEquivalence(t *testing.T) {
	queries := []string{
		"EXISTS x, y, z . R(x, y, z)",
		"FORALL x, y, z . NOT R(x, y, z) OR y < 3",
		"R(0, 0, 0)",
		"R(1, 2, 0) OR R(2, 1, 1)",
		"R(0, 1, 2) AND NOT R(1, 1, 1)",
	}
	engines := []*core.Engine{
		core.NewEngine(core.WithWorkers(4), core.WithMemo(false)),
		core.NewEngine(core.WithWorkers(8), core.WithMemo(true)),
	}
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 6; iter++ {
		in := randomInput(t, rng, 7+rng.Intn(4))
		for _, f := range core.Families {
			for _, src := range queries {
				q := query.MustParse(src)
				want, wantErr := Evaluate(f, in, q)
				for ei, eng := range engines {
					got, gotErr := Evaluate(f, in.WithEngine(eng), q)
					if got != want || (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("iter %d, %s, engine %d, %q: answer = %v (%v), want %v (%v)",
							iter, f, ei, src, got, gotErr, want, wantErr)
					}
				}
			}
		}
	}
}

// TestFreeAnswersEngineEquivalence: open-query certain answers agree
// between sequential and parallel engines.
func TestFreeAnswersEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	eng := core.NewEngine(core.WithWorkers(8), core.WithMemo(true))
	q := query.MustParse("EXISTS y . R(x, y, z)")
	for iter := 0; iter < 4; iter++ {
		in := randomInput(t, rng, 6+rng.Intn(4))
		for _, f := range core.Families {
			want, err := FreeAnswers(f, in, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := FreeAnswers(f, in.WithEngine(eng), q)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("iter %d, %s: answers differ:\nseq: %v\npar: %v", iter, f, want, got)
			}
		}
	}
}

// TestResolvedFirstTouchIsShared: 16 goroutines asking one version
// for its resolved components for the first time all get one value —
// built once, equal to what the sequential engine resolves — and a
// build abandoned on cancellation leaves nothing behind.
func TestResolvedFirstTouchIsShared(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	eng := core.NewEngine(core.WithWorkers(4))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, f := range core.Families {
		rel := randomInput(t, rng, 40).Rels[0]
		if _, err := rel.Resolved(cancelled, eng, f); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: Resolved on a cancelled context: err = %v", f, err)
		}
		want, err := core.Sequential().Resolve(context.Background(), f, rel.Pri)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*core.Resolved, 16)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := rel.Resolved(context.Background(), eng, f)
				if err != nil {
					t.Errorf("%v: %v", f, err)
				}
				got[i] = res
			}()
		}
		wg.Wait()
		for i, res := range got {
			if res != got[0] {
				t.Fatalf("%v: goroutine %d got a different resolved structure than goroutine 0", f, i)
			}
		}
		if !got[0].Base.Equal(want.Base) || len(got[0].Multi) != len(want.Multi) {
			t.Fatalf("%v: resolved structure differs from the sequential engine's", f)
		}
		for i, c := range got[0].Multi {
			w := want.Multi[i]
			if c.Comp[0] != w.Comp[0] || len(c.Local) != len(w.Local) {
				t.Fatalf("%v: multi-choice component %d differs from the sequential engine's", f, i)
			}
			for k := range c.Local {
				if !c.Local[k].Equal(w.Local[k]) {
					t.Fatalf("%v: component %d, choice %d differs from the sequential engine's", f, i, k)
				}
			}
		}
	}
}
