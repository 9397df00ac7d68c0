package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"prefcqa/internal/conflict"
	"prefcqa/internal/fd"
	"prefcqa/internal/priority"
	"prefcqa/internal/relation"
	"prefcqa/internal/repair"
)

// TestCountCachedMatchesCount checks the (era, component ID)-keyed
// count cache against the reference Count across a mutation stream,
// on the same cache instance throughout — stale entries for retired
// IDs must never be served for fresh components.
func TestCountCachedMatchesCount(t *testing.T) {
	schema := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	rng := rand.New(rand.NewSource(3))
	inst := relation.NewInstance(schema)
	fds := fd.MustParseSet(schema, "A -> B")
	for i := 0; i < 10; i++ {
		inst.MustInsert(rng.Intn(4), rng.Intn(3))
	}
	g := conflict.MustBuild(inst, fds)
	p := priority.New(g)
	eng := NewEngine(WithWorkers(1))
	cc := NewCountCache()

	for step := 0; step < 80; step++ {
		// Mutate: insert, delete, or orient an edge.
		switch rng.Intn(3) {
		case 0:
			inst = inst.Fork()
			before := inst.NumIDs()
			id, _ := inst.InsertValues(rng.Intn(4), rng.Intn(3))
			var d conflict.Delta
			if inst.NumIDs() > before {
				d.Inserts = append(d.Inserts, id)
			}
			ng, _, err := g.ApplyDelta(inst, d)
			if err != nil {
				t.Fatal(err)
			}
			g, p = ng, p.Rebase(ng)
		case 1:
			if inst.Len() == 0 {
				continue
			}
			live := inst.AllIDs().Slice()
			v := live[rng.Intn(len(live))]
			inst = inst.Fork()
			inst.Delete(v)
			ng, _, err := g.ApplyDelta(inst, conflict.Delta{Deletes: []int{v}})
			if err != nil {
				t.Fatal(err)
			}
			g, p = ng, p.Rebase(ng)
			p.DropVertex(v)
		default:
			es := g.Edges()
			if len(es) == 0 {
				continue
			}
			e := es[rng.Intn(len(es))]
			if p.Oriented(e.A, e.B) {
				continue
			}
			// Mimic the facade: fork graph + priority, orient, touch.
			ng, _, err := g.ApplyDelta(inst, conflict.Delta{})
			if err != nil {
				t.Fatal(err)
			}
			q := p.Rebase(ng)
			if err := q.Add(e.A, e.B); err != nil {
				continue
			}
			ng.Touch(e.A)
			g, p = ng, q
		}
		for _, f := range Families {
			want, err := eng.Count(f, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.CountCached(f, p, cc)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("step %d %v: CountCached = %d, Count = %d", step, f, got, want)
			}
			// A second call must hit the cache and agree.
			again, err := eng.CountCached(f, p, cc)
			if err != nil || again != want {
				t.Fatalf("step %d %v: cached re-count = %d, %v", step, f, again, err)
			}
		}
	}
	if cc.Len() == 0 {
		t.Fatal("count cache never populated")
	}
}

// TestCountCachedNilCache falls back to the plain count.
func TestCountCachedNilCache(t *testing.T) {
	schema := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(schema)
	fds := fd.MustParseSet(schema, "A -> B")
	inst.MustInsert(1, 0)
	inst.MustInsert(1, 1)
	p := priority.New(conflict.MustBuild(inst, fds))
	eng := NewEngine()
	got, err := eng.CountCached(Rep, p, nil)
	if err != nil || got != 2 {
		t.Fatalf("CountCached(nil) = %d, %v; want 2", got, err)
	}
}

// TestCountCachedKeepsTheLastTotal: the second count of an unchanged
// graph version is the kept total — no per-component lookup — while a
// new version (a fresh component listing) and a cancelled count never
// see or leave a stale one.
func TestCountCachedKeepsTheLastTotal(t *testing.T) {
	base, fds := clustersInstance(40, 2)
	p := priority.New(conflict.MustBuild(base, fds))
	eng := NewEngine(WithWorkers(1))
	cc := NewCountCache()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.CountCachedCtx(cancelled, Rep, p, cc); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled count: err = %v", err)
	}
	if cc.totals[Rep].Load() != nil {
		t.Fatal("a cancelled count left a total behind")
	}
	want := int64(1) << 40
	for round := 0; round < 2; round++ {
		if n, err := eng.CountCached(Rep, p, cc); err != nil || n != want {
			t.Fatalf("round %d: count = %d, %v, want %d", round, n, err, want)
		}
	}
	hits, misses := eng.CacheStats()
	if hits+misses != 40 {
		t.Fatalf("memo consulted %d times for two counts of 40 components, want 40", hits+misses)
	}
	cc.mu.Lock()
	cc.m = make(map[countKey]int64) // from here on only the kept total can answer
	cc.mu.Unlock()
	if n, err := eng.CountCached(Rep, p, cc); err != nil || n != want {
		t.Fatalf("count from the kept total = %d, %v, want %d", n, err, want)
	}
	if hits2, misses2 := eng.CacheStats(); hits2+misses2 != 40 {
		t.Fatal("a count of an unchanged version went back to the components")
	}
	// Deleting one tuple forks the graph: a new listing, a new total.
	g := p.Graph()
	inst := base.Fork()
	inst.Delete(0)
	ng, _, err := g.ApplyDelta(inst, conflict.Delta{Deletes: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	p2 := p.Rebase(ng)
	p2.DropVertex(0)
	if n, err := eng.CountCached(Rep, p2, cc); err != nil || n != want/2 {
		t.Fatalf("count after a delete = %d, %v, want %d", n, err, want/2)
	}
	// 70 undetermined clusters overflow int64, and say so twice.
	big := clustersPriority(t, 70, 2)
	for round := 0; round < 2; round++ {
		if _, err := eng.CountCached(Rep, big, cc); err != repair.ErrOverflow {
			t.Fatalf("round %d: 2^70 repairs: err = %v, want ErrOverflow", round, err)
		}
	}
}

// Len returns the number of cached component counts.
func (c *CountCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
