package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValue(t *testing.T) {
	var s Set
	if !s.Empty() {
		t.Fatal("zero value should be empty")
	}
	if s.Has(0) || s.Has(1000) {
		t.Fatal("zero value should contain nothing")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if s.Min() != -1 {
		t.Fatalf("Min = %d, want -1", s.Min())
	}
	s.Add(5)
	if !s.Has(5) {
		t.Fatal("Add on zero value failed")
	}
}

func TestAddRemoveHas(t *testing.T) {
	s := New(10)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Has(%d) = false after Add", i)
		}
	}
	if got := s.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	s.Remove(64)
	if s.Has(64) {
		t.Fatal("Has(64) after Remove")
	}
	s.Remove(64) // idempotent
	s.Remove(-3) // no-op
	if got := s.Len(); got != 7 {
		t.Fatalf("Len = %d, want 7", got)
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) should panic")
		}
	}()
	var s Set
	s.Add(-1)
}

func TestHasNegative(t *testing.T) {
	s := FromSlice([]int{0, 1, 2})
	if s.Has(-1) {
		t.Fatal("Has(-1) = true")
	}
}

func TestFromSliceAndSlice(t *testing.T) {
	in := []int{9, 3, 3, 120, 0}
	s := FromSlice(in)
	want := []int{0, 3, 9, 120}
	got := s.Slice()
	if len(got) != len(want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

func TestFull(t *testing.T) {
	s := Full(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	for i := 0; i < 130; i++ {
		if !s.Has(i) {
			t.Fatalf("Full(130) missing %d", i)
		}
	}
	if s.Has(130) {
		t.Fatal("Full(130) contains 130")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromSlice([]int{1, 2, 3, 64})
	b := FromSlice([]int{3, 4, 64, 200})

	if got := Union(a, b).Slice(); !equalInts(got, []int{1, 2, 3, 4, 64, 200}) {
		t.Errorf("Union = %v", got)
	}
	if got := Intersect(a, b).Slice(); !equalInts(got, []int{3, 64}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := Difference(a, b).Slice(); !equalInts(got, []int{1, 2}) {
		t.Errorf("Difference = %v", got)
	}
	if got := Difference(b, a).Slice(); !equalInts(got, []int{4, 200}) {
		t.Errorf("Difference = %v", got)
	}
	// Operands must be unchanged.
	if !equalInts(a.Slice(), []int{1, 2, 3, 64}) {
		t.Error("Union/Intersect/Difference mutated operand a")
	}
}

func TestIntersectWithShorter(t *testing.T) {
	a := FromSlice([]int{1, 500})
	b := FromSlice([]int{1})
	a.IntersectWith(b)
	if !equalInts(a.Slice(), []int{1}) {
		t.Fatalf("IntersectWith = %v, want [1]", a.Slice())
	}
}

func TestSubsetIntersectsEqual(t *testing.T) {
	a := FromSlice([]int{1, 2})
	b := FromSlice([]int{1, 2, 3})
	c := FromSlice([]int{7, 400})

	if !a.SubsetOf(b) {
		t.Error("a should be subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	if !a.Intersects(b) {
		t.Error("a should intersect b")
	}
	if a.Intersects(c) {
		t.Error("a should not intersect c")
	}
	// Equal must ignore capacity differences.
	big := New(1000)
	big.Add(1)
	big.Add(2)
	if !big.Equal(a) || !a.Equal(big) {
		t.Error("Equal should ignore trailing zero words")
	}
	if a.Equal(b) {
		t.Error("a should not equal b")
	}
	var empty Set
	if !empty.SubsetOf(a) {
		t.Error("empty set should be subset of anything")
	}
}

func TestMin(t *testing.T) {
	s := FromSlice([]int{130, 70, 890})
	if got := s.Min(); got != 70 {
		t.Fatalf("Min = %d, want 70", got)
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 4, 5})
	var seen []int
	s.Range(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 3
	})
	if !equalInts(seen, []int{1, 2, 3}) {
		t.Fatalf("early stop saw %v", seen)
	}
}

func TestKeyCanonical(t *testing.T) {
	a := FromSlice([]int{1, 2})
	b := New(4096)
	b.Add(1)
	b.Add(2)
	if a.Key() != b.Key() {
		t.Fatal("Key should not depend on capacity")
	}
	b.Add(3000)
	if a.Key() == b.Key() {
		t.Fatal("different sets should have different keys")
	}
}

func TestString(t *testing.T) {
	if got := FromSlice([]int{2, 0}).String(); got != "{0 2}" {
		t.Fatalf("String = %q", got)
	}
	var empty Set
	if got := empty.String(); got != "{}" {
		t.Fatalf("String = %q", got)
	}
}

func TestClear(t *testing.T) {
	s := FromSlice([]int{1, 99})
	s.Clear()
	if !s.Empty() {
		t.Fatal("Clear should empty the set")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]int{1, 2})
	b := a.Clone()
	b.Add(3)
	if a.Has(3) {
		t.Fatal("Clone should be independent")
	}
}

// Property: set algebra agrees with a map-based reference model.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		s, sm := &Set{}, map[int]bool{}
		u, um := &Set{}, map[int]bool{}
		for _, x := range xs {
			s.Add(int(x))
			sm[int(x)] = true
		}
		for _, y := range ys {
			u.Add(int(y))
			um[int(y)] = true
		}
		if s.Len() != len(sm) {
			return false
		}
		inter := Intersect(s, u)
		union := Union(s, u)
		diff := Difference(s, u)
		for i := 0; i < 1<<16; i += 7 {
			if inter.Has(i) != (sm[i] && um[i]) {
				return false
			}
			if union.Has(i) != (sm[i] || um[i]) {
				return false
			}
			if diff.Has(i) != (sm[i] && !um[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Slice is sorted and duplicates-free, round-trips via FromSlice.
func TestQuickSliceRoundTrip(t *testing.T) {
	f := func(xs []uint16) bool {
		s := &Set{}
		for _, x := range xs {
			s.Add(int(x))
		}
		sl := s.Slice()
		if !sort.IntsAreSorted(sl) {
			return false
		}
		for i := 1; i < len(sl); i++ {
			if sl[i] == sl[i-1] {
				return false
			}
		}
		return FromSlice(sl).Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: DeMorgan-ish identities on random sets.
func TestQuickIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		a, b := randSet(rng, 300), randSet(rng, 300)
		// a = (a∩b) ∪ (a\b)
		if !Union(Intersect(a, b), Difference(a, b)).Equal(a) {
			t.Fatal("identity a = (a∩b)∪(a\\b) failed")
		}
		// (a\b) ∩ b = ∅
		if Intersect(Difference(a, b), b).Len() != 0 {
			t.Fatal("identity (a\\b)∩b = ∅ failed")
		}
		// a ⊆ a∪b and a∩b ⊆ a
		if !a.SubsetOf(Union(a, b)) || !Intersect(a, b).SubsetOf(a) {
			t.Fatal("subset identities failed")
		}
		if a.Intersects(b) != (Intersect(a, b).Len() > 0) {
			t.Fatal("Intersects disagrees with Intersect")
		}
	}
}

func randSet(rng *rand.Rand, n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Add(rng.Intn(n))
		}
	}
	return s
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkRange(b *testing.B) {
	s := Full(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		s.Range(func(int) bool { n++; return true })
		if n != 4096 {
			b.Fatal("bad count")
		}
	}
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}
