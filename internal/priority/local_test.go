package priority

import (
	"math/rand"
	"testing"

	"prefcqa/internal/bitset"
)

// TestLocalizeOrientation checks the projected orientation against the
// global Dominates relation on every induced edge.
func TestLocalizeOrientation(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g := graphFromSeed(seed, 10)
		rng := rand.New(rand.NewSource(seed + 99))
		p := Random(g, 0.6, rng)
		for _, comp := range g.Components() {
			l := g.Project(comp)
			pl := p.Localize(l)
			for i := 0; i < l.Len(); i++ {
				gi := l.Global(i)
				pl.RangeNeighbors(i, func(j int, o int8) bool {
					gj := l.Global(j)
					switch {
					case p.Dominates(gi, gj):
						if o != 1 {
							t.Fatalf("seed %d: orient(%d,%d) = %d, want 1", seed, i, j, o)
						}
					case p.Dominates(gj, gi):
						if o != -1 {
							t.Fatalf("seed %d: orient(%d,%d) = %d, want -1", seed, i, j, o)
						}
					default:
						if o != 0 {
							t.Fatalf("seed %d: orient(%d,%d) = %d, want 0", seed, i, j, o)
						}
					}
					if pl.Dominates(i, j) != p.Dominates(gi, gj) {
						t.Fatalf("seed %d: local Dominates(%d,%d) disagrees", seed, i, j)
					}
					return true
				})
			}
		}
	}
}

// TestLocalUndominatedIn cross-checks the local winnow membership test
// against the global one on random subsets.
func TestLocalUndominatedIn(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := graphFromSeed(seed, 10)
		rng := rand.New(rand.NewSource(seed + 7))
		p := Random(g, 0.7, rng)
		for _, comp := range g.Components() {
			l := g.Project(comp)
			pl := p.Localize(l)
			for trial := 0; trial < 10; trial++ {
				localRest := bitset.New(l.Len())
				globalRest := bitset.New(g.Len())
				for i := 0; i < l.Len(); i++ {
					if rng.Intn(2) == 0 {
						localRest.Add(i)
						globalRest.Add(l.Global(i))
					}
				}
				for i := 0; i < l.Len(); i++ {
					want := p.UndominatedIn(l.Global(i), globalRest)
					if got := pl.UndominatedIn(i, localRest); got != want {
						t.Fatalf("seed %d: UndominatedIn(%d) = %v, want %v", seed, i, got, want)
					}
				}
			}
		}
	}
}

// Dominates reports whether local vertex x ≻ local vertex y.
func (pl *Local) Dominates(x, y int) bool {
	base := pl.entryBase(x)
	for k, j := range pl.l.Neighbors(x) {
		if int(j) == y {
			return pl.orient[base+k] == orientOut
		}
	}
	return false
}
