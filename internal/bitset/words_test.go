package bitset

import (
	"math/bits"
	"math/rand"
	"testing"
)

func TestWordsBasics(t *testing.T) {
	k := 130 // spans three words
	w := make(Words, WordsLen(k))
	if !w.Empty() || w.Len() != 0 {
		t.Fatal("fresh Words should be empty")
	}
	for _, i := range []int{0, 63, 64, 65, 127, 128, 129} {
		w.Add(i)
		if !w.Has(i) {
			t.Fatalf("Has(%d) = false after Add", i)
		}
	}
	if w.Len() != 7 {
		t.Fatalf("Len = %d, want 7", w.Len())
	}
	w.Remove(64)
	if w.Has(64) {
		t.Fatal("Remove failed")
	}
	var got []int
	w.Range(func(i int) bool { got = append(got, i); return true })
	want := []int{0, 63, 65, 127, 128, 129}
	if len(got) != len(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Range = %v, want %v", got, want)
		}
	}
	s := w.ToSet()
	for _, i := range want {
		if !s.Has(i) {
			t.Fatalf("ToSet missing %d", i)
		}
	}
	if s.Len() != len(want) {
		t.Fatalf("ToSet.Len = %d, want %d", s.Len(), len(want))
	}
	w.Clear()
	if !w.Empty() {
		t.Fatal("Clear failed")
	}
}

func TestWordsFill(t *testing.T) {
	for _, k := range []int{0, 1, 63, 64, 65, 128, 130} {
		w := make(Words, WordsLen(130))
		w.Fill(k)
		if w.Len() != k {
			t.Fatalf("Fill(%d).Len = %d", k, w.Len())
		}
		if k > 0 && (!w.Has(0) || !w.Has(k-1)) {
			t.Fatalf("Fill(%d) missing endpoints", k)
		}
		if k < 130 && w.Has(k) {
			t.Fatalf("Fill(%d) contains %d", k, k)
		}
	}
}

func TestWordsSetOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	k := 190
	n := WordsLen(k)
	a, b := make(Words, n), make(Words, n)
	for i := 0; i < k; i++ {
		if rng.Intn(2) == 0 {
			a.Add(i)
		}
		if rng.Intn(2) == 0 {
			b.Add(i)
		}
	}
	inter := make(Words, n)
	cnt := IntersectInto(inter, a, b)
	diff := make(Words, n)
	AndNotInto(diff, a, b)
	if cnt != inter.Len() {
		t.Fatalf("IntersectInto count %d != Len %d", cnt, inter.Len())
	}
	for i := 0; i < k; i++ {
		if inter.Has(i) != (a.Has(i) && b.Has(i)) {
			t.Fatalf("intersection wrong at %d", i)
		}
		if diff.Has(i) != (a.Has(i) && !b.Has(i)) {
			t.Fatalf("difference wrong at %d", i)
		}
	}
	c := make(Words, n)
	c.Copy(a)
	for i := 0; i < k; i++ {
		if c.Has(i) != a.Has(i) {
			t.Fatalf("copy wrong at %d", i)
		}
	}
}

// Len returns the number of elements.
func (w Words) Len() int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}
