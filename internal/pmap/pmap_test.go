package pmap

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// checkAgainst compares a map value with the builtin map it must equal:
// Len, Get of every key (and of absent neighbours), ascending Range.
func checkAgainst(t *testing.T, tag string, m Map[int], want map[int]int) {
	t.Helper()
	if m.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", tag, m.Len(), len(want))
	}
	keys := make([]int, 0, len(want))
	for k, v := range want {
		keys = append(keys, k)
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("%s: Get(%d) = %d, %v; want %d", tag, k, got, ok, v)
		}
		if _, absent := want[k+1]; !absent {
			if got, ok := m.Get(k + 1); ok {
				t.Fatalf("%s: Get(%d) = %d on an absent key", tag, k+1, got)
			}
		}
	}
	sort.Ints(keys)
	i := 0
	m.Range(func(k, v int) bool {
		if i >= len(keys) || k != keys[i] || v != want[k] {
			t.Fatalf("%s: Range entry %d = (%d, %d), want key %v", tag, i, k, v, keys[i:min(i+1, len(keys))])
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("%s: Range yielded %d entries, want %d", tag, i, len(keys))
	}
}

// TestMatchesBuiltinMapAndKeepsOldValues drives random Set/Delete —
// dense keys with sparse large ones mixed in — against a builtin map,
// keeps every 1000th map value with a copy of the reference, and checks
// every kept value again at the end: a Set or Delete that wrote a node
// an older value shares would show there.
func TestMatchesBuiltinMapAndKeepsOldValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m Map[int]
	ref := map[int]int{}
	type kept struct {
		m    Map[int]
		want map[int]int
		step int
	}
	var pins []kept
	const steps = 30000
	for step := 0; step < steps; step++ {
		k := rng.Intn(3000)
		switch rng.Intn(20) {
		case 0:
			k = rng.Intn(1 << 30) // sparse: grows the trie by several levels
		case 1:
			k = 1<<20 + rng.Intn(64)
		}
		if rng.Intn(3) == 0 {
			m.Delete(k)
			delete(ref, k)
		} else {
			m.Set(k, step)
			ref[k] = step
		}
		if step%1000 == 0 {
			cp := make(map[int]int, len(ref))
			for k, v := range ref {
				cp[k] = v
			}
			pins = append(pins, kept{m: m, want: cp, step: step})
		}
	}
	checkAgainst(t, "final", m, ref)
	for _, p := range pins {
		checkAgainst(t, "value kept at step "+strconv.Itoa(p.step), p.m, p.want)
	}
}

// TestZeroValueAndEdges covers what the random stream reaches only by
// luck: the zero value, negative and out-of-span keys, emptying a map
// that has grown and filling it again, an early stop of Range.
func TestZeroValueAndEdges(t *testing.T) {
	var m Map[string]
	if _, ok := m.Get(0); ok || m.Len() != 0 {
		t.Fatal("zero value is not empty")
	}
	m.Delete(7) // absent: no-op
	m.Range(func(int, string) bool { t.Fatal("Range on the empty map yielded"); return false })
	m.Set(1<<22, "far")
	m.Set(3, "near")
	if _, ok := m.Get(-1); ok {
		t.Fatal("Get(-1) found something")
	}
	if _, ok := m.Get(1 << 40); ok {
		t.Fatal("Get beyond the span found something")
	}
	fork := m
	m.Delete(3)
	m.Delete(1 << 22)
	if m.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", m.Len())
	}
	m.Set(5, "again")
	if v, ok := m.Get(5); !ok || v != "again" || m.Len() != 1 {
		t.Fatalf("refilled map: Get(5) = %q, %v, Len %d", v, ok, m.Len())
	}
	if v, ok := fork.Get(3); !ok || v != "near" || fork.Len() != 2 {
		t.Fatalf("fork lost its entries: Get(3) = %q, %v, Len %d", v, ok, fork.Len())
	}
	var seen []int
	fork.Range(func(k int, _ string) bool { seen = append(seen, k); return false })
	if len(seen) != 1 || seen[0] != 3 {
		t.Fatalf("Range did not stop after the first entry: %v", seen)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set of a negative key did not panic")
		}
	}()
	m.Set(-1, "x")
}
