package core

import (
	"context"
	"math/rand"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
	"prefcqa/internal/fd"
	"prefcqa/internal/priority"
	"prefcqa/internal/relation"
	"prefcqa/internal/repair"
)

// engineConfigs returns the engine configurations whose results must
// be bit-for-bit identical to the sequential reference path.
func engineConfigs() map[string]*Engine {
	return map[string]*Engine{
		"workers=1,memo":    NewEngine(WithWorkers(1), WithMemo(true)),
		"workers=4":         NewEngine(WithWorkers(4), WithMemo(false)),
		"workers=8,memo":    NewEngine(WithWorkers(8), WithMemo(true)),
		"workers=auto,memo": NewEngine(),
	}
}

// TestEngineEquivalence: every engine configuration produces the same
// repairs, in the same order, with the same count, as the sequential
// reference path — for every family, on randomized instances.
func TestEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for wi, p := range workloads(rng, 8) {
		for _, f := range Families {
			wantAll := All(f, p)
			wantCount, wantErr := Sequential().Count(f, p)
			wantOne := One(f, p)
			for name, eng := range engineConfigs() {
				gotAll := eng.All(f, p)
				if len(gotAll) != len(wantAll) {
					t.Fatalf("workload %d, %s, %s: |All| = %d, want %d",
						wi, f, name, len(gotAll), len(wantAll))
				}
				for i := range gotAll {
					if !gotAll[i].Equal(wantAll[i]) {
						t.Fatalf("workload %d, %s, %s: All[%d] = %v, want %v (order must match)",
							wi, f, name, i, gotAll[i], wantAll[i])
					}
				}
				gotCount, gotErr := eng.Count(f, p)
				if gotCount != wantCount || gotErr != wantErr {
					t.Fatalf("workload %d, %s, %s: Count = %d, %v, want %d, %v",
						wi, f, name, gotCount, gotErr, wantCount, wantErr)
				}
				if gotOne := eng.One(f, p); !gotOne.Equal(wantOne) {
					t.Fatalf("workload %d, %s, %s: One = %v, want %v",
						wi, f, name, gotOne, wantOne)
				}
			}
		}
	}
}

// TestEngineMemoHitsAcrossIsomorphicComponents: structurally
// identical components are computed once and served from the cache.
func TestEngineMemoHitsAcrossIsomorphicComponents(t *testing.T) {
	p := clustersPriority(t, 20, 3) // 20 identical 3-cliques
	for _, f := range Families {
		// One worker: with concurrent workers two misses can race on
		// the same fresh key, making exact counts flaky.
		eng := NewEngine(WithWorkers(1), WithMemo(true))
		c, err := eng.Count(f, p)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		want, _ := Sequential().Count(f, p)
		if c != want {
			t.Fatalf("%s: count = %d, want %d", f, c, want)
		}
		hits, misses := eng.CacheStats()
		if misses != 1 || hits != 19 {
			t.Errorf("%s: cache hits/misses = %d/%d, want 19/1", f, hits, misses)
		}
	}
}

// TestEngineMemoAcrossRepeatedQueries: a second evaluation against
// the same priority is served entirely from the cache.
func TestEngineMemoAcrossRepeatedQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomInstance(rng, 9, "A -> B", "B -> C")
	eng := NewEngine(WithWorkers(4), WithMemo(true))
	first := eng.All(Global, p)
	_, missesAfterFirst := eng.CacheStats()
	second := eng.All(Global, p)
	_, missesAfterSecond := eng.CacheStats()
	if missesAfterSecond != missesAfterFirst {
		t.Errorf("second query missed the cache: %d -> %d misses",
			missesAfterFirst, missesAfterSecond)
	}
	if len(first) != len(second) {
		t.Fatalf("runs disagree: %d vs %d repairs", len(first), len(second))
	}
	for i := range first {
		if !first[i].Equal(second[i]) {
			t.Fatalf("repair %d differs between runs", i)
		}
	}
}

// TestEngineEnumerateEarlyStop: stopping the yield mid-stream returns
// ErrStopped and does not deadlock or leak blocked workers.
func TestEngineEnumerateEarlyStop(t *testing.T) {
	p := clustersPriority(t, 12, 3)
	eng := NewEngine(WithWorkers(4), WithMemo(false))
	n := 0
	err := eng.Enumerate(Rep, p, func(*bitset.Set) bool {
		n++
		return n < 5
	})
	if err != repair.ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if n != 5 {
		t.Fatalf("yielded %d repairs, want 5", n)
	}
}

// TestEngineEmptyGraph: an instance with no tuples has exactly one
// (empty) repair under every configuration.
func TestEngineEmptyGraph(t *testing.T) {
	p := clustersPriority(t, 0, 0)
	for name, eng := range engineConfigs() {
		if c, err := eng.Count(Rep, p); err != nil || c != 1 {
			t.Errorf("%s: Count = %d, %v, want 1", name, c, err)
		}
		if got := len(eng.All(Rep, p)); got != 1 {
			t.Errorf("%s: |All| = %d, want 1", name, got)
		}
	}
}

// TestComponentKeyDistinguishesOrientation: flipping one preference
// must change the cache key (same structure, different priority).
func TestComponentKeyDistinguishesOrientation(t *testing.T) {
	mk := func(flip bool) (*priority.Priority, []int) {
		p := clustersPriority(t, 1, 2)
		if flip {
			p.MustAdd(1, 0)
		} else {
			p.MustAdd(0, 1)
		}
		return p, p.Graph().Components()[0]
	}
	pa, ca := mk(false)
	pb, cb := mk(true)
	for _, f := range []Family{Local, SemiGlobal, Global, Common} {
		if componentKey(f, pa, ca) == componentKey(f, pb, cb) {
			t.Errorf("%s: orientation flip did not change the key", f)
		}
	}
	// Rep ignores the priority: the keys must coincide.
	if componentKey(Rep, pa, ca) != componentKey(Rep, pb, cb) {
		t.Errorf("Rep: key depends on orientation but must not")
	}
}

// clustersPriority builds m disjoint k-cliques over R(K,V) with
// K -> V and an empty priority. (A local mirror of workload.Clusters;
// the workload package depends on core, not vice versa.)
func clustersPriority(t testing.TB, m, k int) *priority.Priority {
	t.Helper()
	return clustersPriorityB(m, k)
}

func clustersPriorityB(m, k int) *priority.Priority {
	return priority.New(conflict.MustBuild(clustersInstance(m, k)))
}

// clustersInstance is the instance and FD behind clustersPriority: m
// clusters of k tuples that agree on K and differ on V.
func clustersInstance(m, k int) (*relation.Instance, *fd.Set) {
	s := relation.MustSchema("R", relation.IntAttr("K"), relation.IntAttr("V"))
	inst := relation.NewInstance(s)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			inst.MustInsert(i, j)
		}
	}
	return inst, fd.MustParseSet(s, "K -> V")
}

func BenchmarkEngineClusters(b *testing.B) {
	// m identical 4-cliques: the component-sharded engine with
	// memoization computes one clique and reuses it m-1 times.
	// (31 cliques keep 4^31 preferred repairs within int64.)
	for _, cfg := range []struct {
		name string
		eng  *Engine
	}{
		{"sequential", Sequential()},
		{"parallel", NewEngine()},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			p := clustersPriorityB(31, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cfg.eng.Count(Global, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// One returns a single preferred repair of the family — the first in
// enumeration order. Every family is non-empty for every priority
// (P1 holds for Rep, L, S, G, C; Props. 2–4, 6), so One always
// succeeds on a well-formed priority.
func (e *Engine) One(f Family, p *priority.Priority) *bitset.Set {
	var out *bitset.Set
	e.Enumerate(f, p, func(s *bitset.Set) bool { //nolint:errcheck // stops after first
		out = s.Clone()
		return false
	})
	return out
}

// One is Engine.One on the sequential reference engine.
func One(f Family, p *priority.Priority) *bitset.Set {
	return sequential.One(f, p)
}

// Count returns |X-Rep| as the product of per-component counts, or
// repair.ErrOverflow when it exceeds int64. Count never materializes
// the cross-product.
func (e *Engine) Count(f Family, p *priority.Priority) (int64, error) {
	return e.CountCtx(context.Background(), f, p)
}
