package fd

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"prefcqa/internal/relation"
)

// referenceViolations is the violation scan Set.Violations replaced,
// kept as the reference it is held to: per dependency, one map from
// LHS key to the group's IDs, and per group one map from RHS key to the
// class's IDs, every pair across two classes a conflict.
func referenceViolations(s *Set, r *relation.Instance) []Violation {
	var out []Violation
	var buf []byte
	for fi, f := range s.fds {
		groups := make(map[string][]relation.TupleID)
		r.RangeIDs(func(id relation.TupleID) bool {
			buf = appendProjectionKey(buf[:0], r, id, f.lhs)
			groups[string(buf)] = append(groups[string(buf)], id)
			return true
		})
		for _, ids := range groups {
			if len(ids) < 2 {
				continue
			}
			byRHS := make(map[string][]relation.TupleID)
			var order []string
			for _, id := range ids {
				buf = appendProjectionKey(buf[:0], r, id, f.rhs)
				k := string(buf)
				if _, seen := byRHS[k]; !seen {
					order = append(order, k)
				}
				byRHS[k] = append(byRHS[k], id)
			}
			for i := 0; i < len(order); i++ {
				for j := i + 1; j < len(order); j++ {
					for _, a := range byRHS[order[i]] {
						for _, b := range byRHS[order[j]] {
							out = append(out, Violation{T1: min(a, b), T2: max(a, b), FD: fi})
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.T1 != b.T1 {
			return a.T1 < b.T1
		}
		if a.T2 != b.T2 {
			return a.T2 < b.T2
		}
		return a.FD < b.FD
	})
	return out
}

// appendProjectionKey appends the key of tuple id of r projected onto
// attrs: equal projections, and only they, have equal keys.
func appendProjectionKey(b []byte, r *relation.Instance, id relation.TupleID, attrs []int) []byte {
	for _, a := range attrs {
		b = r.ValueAt(id, a).AppendKey(b)
	}
	return b
}

// randomViolationCase builds an instance of 3 to 5 int and name
// attributes, with 1 to 3 dependencies whose sides hold one or two
// attributes each, and tombstones about a tenth of its tuples. The
// tuples come in groups of 1 to 2 000 that share the first
// dependency's LHS and fall into 1 to 5 classes of its RHS (a large
// group mostly into one, so the conflicts stay in the tens of
// thousands); every other cell is drawn from a small domain, so the
// other dependencies meet groups and conflicts too.
func randomViolationCase(rng *rand.Rand) (*Set, *relation.Instance) {
	attrs := make([]relation.Attribute, 3+rng.Intn(3))
	for i := range attrs {
		if rng.Intn(2) == 0 {
			attrs[i] = relation.IntAttr("A" + strconv.Itoa(i))
		} else {
			attrs[i] = relation.NameAttr("A" + strconv.Itoa(i))
		}
	}
	schema := relation.MustSchema("R", attrs...)
	set := &Set{schema: schema}
	for len(set.fds) == 0 || len(set.fds) < 3 && rng.Intn(2) == 0 {
		perm := rng.Perm(len(attrs))
		nl := 1 + rng.Intn(2)
		nr := 1 + rng.Intn(min(2, len(attrs)-nl))
		f, err := New(schema, perm[:nl], perm[nl:nl+nr])
		if err != nil {
			panic(err)
		}
		set.Add(f) //nolint:errcheck // same schema
	}
	value := func(attr int, x int) relation.Value {
		if attrs[attr].Kind == relation.KindInt {
			return relation.Int(int64(x))
		}
		return relation.Name([]string{"a", "b", "it's", "", "ab", "b'"}[x%6] + strconv.Itoa(x/6))
	}
	first := set.fds[0]
	inst := relation.NewInstance(schema)
	for g, n := 0, 0; n < 3000; g++ {
		size := 1 + rng.Intn(4)
		if rng.Intn(8) == 0 {
			size = 1 + rng.Intn(2000)
		}
		classes := 1 + rng.Intn(5)
		for i := 0; i < size; i++ {
			class := rng.Intn(classes)
			if size > 50 && rng.Intn(50) > 0 {
				class = 0
			}
			t := make(relation.Tuple, len(attrs))
			for a := range t {
				t[a] = value(a, rng.Intn(3))
			}
			for _, a := range first.lhs {
				t[a] = value(a, g)
			}
			for _, a := range first.rhs {
				t[a] = value(a, class+a)
			}
			if _, _, err := inst.Insert(t); err != nil {
				panic(err)
			}
		}
		n += size
	}
	for id := 0; id < inst.NumIDs(); id++ {
		if rng.Intn(10) == 0 {
			inst.Delete(id)
		}
	}
	return set, inst
}

// TestViolationsMatchReference holds the grouped scan to the
// reference on generated instances: the same violations, in the same
// order.
func TestViolationsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	conflicts := 0
	for c := 0; c < 40; c++ {
		set, inst := randomViolationCase(rng)
		got, want := set.Violations(inst), referenceViolations(set, inst)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%s over %s, %d IDs): %d violations, reference %d", c, set, inst.Schema(), inst.NumIDs(), len(got), len(want))
		}
		conflicts += len(want)
	}
	t.Logf("%d violations over 40 instances", conflicts)
	if conflicts == 0 {
		t.Fatal("no generated instance holds a conflict")
	}
}

// TestViolationsOneLargeGroupIsLinear is the guard rail against a
// group scanned pair by pair: one LHS group of 50 000 tuples sharing
// their RHS value holds no conflict, and must cost about what 25 000
// two-tuple groups of the same size cost. A scan over all pairs of the
// group makes 1.25e9 comparisons, seconds against milliseconds.
func TestViolationsOneLargeGroupIsLinear(t *testing.T) {
	schema := relation.MustSchema("R", relation.IntAttr("K"), relation.IntAttr("V"), relation.IntAttr("W"))
	set := MustParseSet(schema, "K -> V")
	scan := func(key func(i int) int) time.Duration {
		inst := relation.NewInstance(schema)
		for i := 0; i < 50000; i++ {
			inst.MustInsert(key(i), 0, i)
		}
		best := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if vs := set.Violations(inst); len(vs) != 0 {
				t.Fatalf("%d violations, want none", len(vs))
			}
			best = min(best, time.Since(t0))
		}
		return best
	}
	one := scan(func(int) int { return 0 })
	pairs := scan(func(i int) int { return i / 2 })
	t.Logf("one group of 50 000: %v; 25 000 groups of two: %v", one, pairs)
	if one > 20*pairs+100*time.Millisecond {
		t.Fatalf("one group of 50 000 takes %v, 25 000 groups of two %v: the group is scanned pair by pair", one, pairs)
	}
}
