package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
	"prefcqa/internal/fd"
	"prefcqa/internal/priority"
	"prefcqa/internal/relation"
)

// bruteForceFamily lists the family's preferred repairs from the
// definitions alone: every subset of the live tuples (a bitmask) that
// is independent and maximal, kept when the global-ID reference checker
// of the family (referenceCheck) accepts it. The list is put in the
// order of an enumeration that never passes through the engine, so it
// also pins the order: allRepairs, the plain list of all repairs, and
// for C-Rep — whose component outcomes are listed lexicographically,
// not in repair order — allOutcomes.
func bruteForceFamily(t *testing.T, f Family, p *priority.Priority) []*bitset.Set {
	t.Helper()
	g := p.Graph()
	live := g.LiveSet().Slice()
	if len(live) > 14 {
		t.Fatalf("brute force over %d tuples", len(live))
	}
	members := map[string]bool{}
	for mask := 0; mask < 1<<len(live); mask++ {
		s := bitset.New(g.Len())
		for i, v := range live {
			if mask&(1<<i) != 0 {
				s.Add(v)
			}
		}
		independent, maximal := true, true
		for _, v := range live {
			conflicts := false
			for _, u := range g.Neighbors(v) {
				if s.Has(int(u)) {
					conflicts = true
					break
				}
			}
			if s.Has(v) && conflicts {
				independent = false
			}
			if !s.Has(v) && !conflicts {
				maximal = false
			}
		}
		if independent && maximal && referenceCheck(f, p, s) {
			members[s.Key()] = true
		}
	}
	order := allRepairs(g)
	if f == Common {
		order = allOutcomes(p)
	}
	var out []*bitset.Set
	for _, r := range order {
		if members[r.Key()] {
			out = append(out, r)
			delete(members, r.Key())
		}
	}
	if len(members) != 0 {
		t.Fatalf("%v: %d brute-force members are missing from the reference enumeration", f, len(members))
	}
	return out
}

// checkAllConfigurations asserts that every engine configuration, the
// sequential reference and the brute-force list agree on p: the same
// repairs in the same order, the same first repair, the same count.
func checkAllConfigurations(t *testing.T, label string, p *priority.Priority) {
	t.Helper()
	for _, f := range Families {
		want := bruteForceFamily(t, f, p)
		checkBounds(t, label, f, p, want)
		configs := engineConfigs()
		configs["sequential"] = Sequential()
		for name, eng := range configs {
			got := eng.All(f, p)
			if len(got) != len(want) {
				t.Fatalf("%s, %v, %s: |All| = %d, brute force has %d\n%s", label, f, name, len(got), len(want), p.Graph().ASCII())
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%s, %v, %s: All[%d] = %v, brute force has %v", label, f, name, i, got[i], want[i])
				}
			}
			var streamed []*bitset.Set
			if err := eng.Enumerate(f, p, func(s *bitset.Set) bool {
				streamed = append(streamed, s.Clone())
				return true
			}); err != nil {
				t.Fatalf("%s, %v, %s: Enumerate: %v", label, f, name, err)
			}
			for i := range streamed {
				if !streamed[i].Equal(want[i]) {
					t.Fatalf("%s, %v, %s: Enumerate yield %d = %v, want %v", label, f, name, i, streamed[i], want[i])
				}
			}
			if one := eng.One(f, p); !one.Equal(want[0]) {
				t.Fatalf("%s, %v, %s: One = %v, want %v", label, f, name, one, want[0])
			}
			if n, err := eng.Count(f, p); err != nil || n != int64(len(want)) {
				t.Fatalf("%s, %v, %s: Count = %d, %v, want %d", label, f, name, n, err, len(want))
			}
			if n, err := eng.CountCached(f, p, NewCountCache()); err != nil || n != int64(len(want)) {
				t.Fatalf("%s, %v, %s: CountCached = %d, %v, want %d", label, f, name, n, err, len(want))
			}
		}
	}
}

// checkBounds asserts that the two bounds of the family's resolved
// part are the union and the intersection of the sets Walk shows at its
// leaves — which are the brute-force repairs — and that the part's set
// is bit-identical once a bound has been shown and hidden.
func checkBounds(t *testing.T, label string, f Family, p *priority.Priority, repairs []*bitset.Set) {
	t.Helper()
	res, err := Sequential().Resolve(context.Background(), f, p)
	if err != nil {
		t.Fatal(err)
	}
	part := res.Part()
	var union, common *bitset.Set
	leaves := 0
	Walk([]Part{part}, func() bool {
		if leaves == 0 {
			union, common = part.Set.Clone(), part.Set.Clone()
		}
		union.UnionWith(part.Set)
		common.IntersectWith(part.Set)
		leaves++
		return true
	})
	if leaves != len(repairs) {
		t.Fatalf("%s, %v: the walk has %d leaves, brute force has %d repairs", label, f, leaves, len(repairs))
	}
	for _, r := range repairs {
		if !common.SubsetOf(r) || !r.SubsetOf(union) {
			t.Fatalf("%s, %v: repair %v is not between %v and %v", label, f, r, common, union)
		}
	}
	for _, c := range []struct {
		upper bool
		want  *bitset.Set
	}{{true, union}, {false, common}, {true, union}} {
		OnBound([]Part{part}, c.upper, func() {
			if !part.Set.Equal(c.want) {
				t.Fatalf("%s, %v: OnBound(%v) shows %v, the leaves give %v", label, f, c.upper, part.Set, c.want)
			}
		})
		if !part.Set.Equal(res.Base) {
			t.Fatalf("%s, %v: after OnBound(%v) the set is %v, was %v", label, f, c.upper, part.Set, res.Base)
		}
	}
}

// TestSameRepairsSameOrderEveryConfiguration is the property test of
// the resolved walk: on random small instances with random
// dependencies and acyclic priorities, with tombstones left by
// deletes, on versions reached through ApplyDelta/Rebase histories
// and on the same states rebuilt from scratch, every configuration
// enumerates what the definitions say, in one order.
func TestSameRepairsSameOrderEveryConfiguration(t *testing.T) {
	schema := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	fdSets := [][]string{{"A -> B,C"}, {"A -> B"}, {"A -> B", "B -> C"}, {"A,B -> C", "C -> A"}}
	rng := rand.New(rand.NewSource(1506))
	for iter := 0; iter < 12; iter++ {
		fds := fd.MustParseSet(schema, fdSets[rng.Intn(len(fdSets))]...)
		inst := relation.NewInstance(schema)
		for i := 0; i < 5+rng.Intn(4); i++ {
			inst.MustInsert(rng.Intn(3), rng.Intn(3), rng.Intn(3))
		}
		g := conflict.MustBuild(inst, fds)
		p := priority.Random(g, 0.5, rng)
		for step := 0; step < 10; step++ {
			switch k := rng.Intn(3); {
			case k == 0 && inst.Len() < 14:
				inst = inst.Fork()
				before := inst.NumIDs()
				id, _ := inst.InsertValues(rng.Intn(3), rng.Intn(3), rng.Intn(3))
				var d conflict.Delta
				if inst.NumIDs() > before {
					d.Inserts = append(d.Inserts, id)
				}
				ng, _, err := g.ApplyDelta(inst, d)
				if err != nil {
					t.Fatal(err)
				}
				g, p = ng, p.Rebase(ng)
			case k == 1 && inst.Len() > 3:
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
				ng, _, err := g.ApplyDelta(inst, conflict.Delta{})
				if err != nil {
					t.Fatal(err)
				}
				q := p.Rebase(ng)
				if err := q.Add(e.A, e.B); err != nil {
					continue // would close a cycle
				}
				ng.Touch(e.A)
				g, p = ng, q
			}
			if step%3 != 2 {
				continue
			}
			checkAllConfigurations(t, "delta history", p)
			rebuilt, err := priority.FromRelation(conflict.MustBuild(inst, fds), p.Edges())
			if err != nil {
				t.Fatal(err)
			}
			checkAllConfigurations(t, "rebuilt", rebuilt)
		}
	}
}

// countingCtx is a context that reports cancellation from its n-th
// Err call on and counts the calls — a deterministic stand-in for a
// deadline that fires mid-operation.
type countingCtx struct {
	context.Context
	mu       sync.Mutex
	calls    int
	cancelAt int
}

func (c *countingCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestResolveCancelsWithinOneChunk: a context cancelled while a cold
// 50 000-component resolve is running stops it within one chunk per
// worker — measured by the components the memo was consulted for.
func TestResolveCancelsWithinOneChunk(t *testing.T) {
	p := clustersPriority(t, 50000, 2)
	for name, workers := range map[string]int{"inline": 1, "pool": 4} {
		eng := NewEngine(WithWorkers(workers))
		ctx := &countingCtx{Context: context.Background(), cancelAt: 3}
		if _, err := eng.Resolve(ctx, Global, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Resolve err = %v, want context.Canceled", name, err)
		}
		hits, misses := eng.CacheStats()
		// Two checks passed before the cancellation, each admitting one
		// chunk; chunks in flight on the other workers may finish.
		if limit := int64((2 + workers) * maxChunk); hits+misses > limit {
			t.Errorf("%s: %d components evaluated after a cancellation at the 3rd check, want <= %d", name, hits+misses, limit)
		}
		if hits+misses == 0 {
			t.Errorf("%s: nothing was evaluated before the cancellation; the test checks nothing", name)
		}
	}
}

// TestEnumerateCancelsBeforeNextYield: cancelling inside a yield of a
// 2^20-repair enumeration ends it there — no further repair is
// yielded — and the context is consulted once per repair, not once
// per component per repair.
func TestEnumerateCancelsBeforeNextYield(t *testing.T) {
	p := clustersPriority(t, 20, 2) // 2^20 Rep repairs
	res, err := NewEngine().Resolve(context.Background(), Rep, p)
	if err != nil {
		t.Fatal(err)
	}
	const stopAfter = 1000
	ctx := &countingCtx{Context: context.Background(), cancelAt: 1 << 30}
	yielded := 0
	err = res.Enumerate(ctx, func(*bitset.Set) bool {
		yielded++
		if yielded == stopAfter {
			ctx.mu.Lock()
			ctx.cancelAt = 0
			ctx.mu.Unlock()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Enumerate err = %v, want context.Canceled", err)
	}
	if yielded != stopAfter {
		t.Fatalf("yielded %d repairs, want the enumeration to stop at %d", yielded, stopAfter)
	}
	if ctx.calls != stopAfter+1 {
		t.Fatalf("context consulted %d times for %d repairs, want one check per repair", ctx.calls, yielded)
	}
}
