// Package axioms turns the paper's desirable properties of preferred
// repair families (§1, P1–P4) into executable checks:
//
//	P1 non-emptiness      X-Rep ≠ ∅
//	P2 monotonicity       Φ ⊆ Ψ ⇒ X-Rep(Ψ) ⊆ X-Rep(Φ)
//	P3 non-discrimination X-Rep(∅) = Rep
//	P4 categoricity       Φ total ⇒ |X-Rep(Φ)| = 1
//
// A family is abstracted as a function from priorities to repair
// sets, so the checks apply both to the paper's families and to
// user-defined ones (e.g. the trivial families of Examples 6 and 10
// the paper uses as counterexamples).
package axioms

import (
	"fmt"
	"math/rand"

	"prefcqa/internal/bitset"
	"prefcqa/internal/core"
	"prefcqa/internal/priority"
)

// FamilyFunc materializes the preferred repairs of a family for a
// given priority.
type FamilyFunc func(p *priority.Priority) []*bitset.Set

// FromCore adapts one of the paper's families.
func FromCore(f core.Family) FamilyFunc {
	return func(p *priority.Priority) []*bitset.Set { return core.All(f, p) }
}

// Report is the outcome of checking the axioms on one priority.
type Report struct {
	P1, P2, P3, P4 Verdict
}

// Verdict is the outcome of a single axiom check.
type Verdict int

const (
	// Holds: the axiom held on every probe.
	Holds Verdict = iota
	// Violated: a counterexample was found.
	Violated
	// NotApplicable: the axiom's precondition never arose (e.g. P4 on
	// a priority with no total extension probes).
	NotApplicable
)

// String renders "holds", "violated" or "n/a".
func (v Verdict) String() string {
	switch v {
	case Holds:
		return "holds"
	case Violated:
		return "violated"
	case NotApplicable:
		return "n/a"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Options control the randomized probing of P2 and P4.
type Options struct {
	// Extensions is the number of random extensions probed for P2 and
	// P4 (default 8).
	Extensions int
	// Rng drives the probes; nil uses a fixed seed.
	Rng *rand.Rand
}

func (o Options) normalize() Options {
	if o.Extensions == 0 {
		o.Extensions = 8
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	return o
}

// Check probes all four axioms for the family on the given priority.
// P1 and P3 are decided exactly; P2 and P4 are probed on random
// total extensions of the priority (a Violated verdict is always a
// genuine counterexample; Holds means no counterexample was found).
func Check(f FamilyFunc, p *priority.Priority, opts Options) Report {
	opts = opts.normalize()
	var rep Report
	rep.P1 = checkP1(f, p)
	rep.P2 = checkP2(f, p, opts)
	rep.P3 = checkP3(f, p)
	rep.P4 = checkP4(f, p, opts)
	return rep
}

func checkP1(f FamilyFunc, p *priority.Priority) Verdict {
	if len(f(p)) == 0 {
		return Violated
	}
	return Holds
}

func checkP2(f FamilyFunc, p *priority.Priority, opts Options) Verdict {
	if p.IsTotal() {
		return NotApplicable
	}
	base := keySet(f(p))
	for i := 0; i < opts.Extensions; i++ {
		ext := p.TotalExtension(opts.Rng)
		for _, r := range f(ext) {
			if !base[r.Key()] {
				return Violated
			}
		}
	}
	return Holds
}

func checkP3(f FamilyFunc, p *priority.Priority) Verdict {
	empty := priority.New(p.Graph())
	got := keySet(f(empty))
	want := keySet(core.All(core.Rep, p))
	if len(got) != len(want) {
		return Violated
	}
	for k := range want {
		if !got[k] {
			return Violated
		}
	}
	return Holds
}

func checkP4(f FamilyFunc, p *priority.Priority, opts Options) Verdict {
	probes := 0
	if p.IsTotal() {
		probes++
		if len(f(p)) != 1 {
			return Violated
		}
	}
	for i := 0; i < opts.Extensions; i++ {
		ext := p.TotalExtension(opts.Rng)
		probes++
		if len(f(ext)) != 1 {
			return Violated
		}
	}
	if probes == 0 {
		return NotApplicable
	}
	return Holds
}

func keySet(repairs []*bitset.Set) map[string]bool {
	m := make(map[string]bool, len(repairs))
	for _, r := range repairs {
		m[r.Key()] = true
	}
	return m
}
