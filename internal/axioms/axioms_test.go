package axioms

import (
	"math/rand"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/clean"
	"prefcqa/internal/core"
	"prefcqa/internal/priority"
	"prefcqa/internal/workload"
)

// TestPaperAxiomTable verifies the axiom profile the paper assigns to
// each family (Props. 2, 3, 4, 6; plus the derived S-categoricity
// deviation documented in internal/core):
//
//	family   P1      P2      P3      P4
//	Rep      holds   holds   holds   violated (Example 8 instance)
//	L-Rep    holds   holds   holds   violated (Example 8)
//	S-Rep    holds   holds   holds   holds (derived; paper says no)
//	G-Rep    holds   holds   holds   holds
//	C-Rep    holds   —       holds   holds
func TestPaperAxiomTable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	scenarios := []*workload.Scenario{
		workload.Example7(), workload.Example9(), workload.Example9Mutual(),
		workload.Clusters(2, 3), workload.Random(rng, 8, 3, 0.4),
	}
	for _, sc := range scenarios {
		for _, f := range []core.Family{core.Local, core.SemiGlobal, core.Global, core.Common} {
			rep := Check(FromCore(f), sc.Pri, Options{Rng: rng})
			if rep.P1 != Holds {
				t.Errorf("%s/%v: P1 = %v", sc.Name, f, rep.P1)
			}
			if rep.P3 != Holds {
				t.Errorf("%s/%v: P3 = %v", sc.Name, f, rep.P3)
			}
			if f != core.Common && rep.P2 == Violated {
				t.Errorf("%s/%v: P2 = %v", sc.Name, f, rep.P2)
			}
			if f != core.Local && rep.P4 == Violated {
				t.Errorf("%s/%v: P4 = %v", sc.Name, f, rep.P4)
			}
		}
	}
}

func TestP4ViolatedForLocalOnExample8(t *testing.T) {
	sc := workload.Example8()
	rep := Check(FromCore(core.Local), sc.Pri, Options{})
	if rep.P4 != Violated {
		t.Fatalf("L-Rep P4 on Example 8 = %v, want violated", rep.P4)
	}
	// Rep itself also fails categoricity there.
	rep = Check(FromCore(core.Rep), sc.Pri, Options{})
	if rep.P4 != Violated {
		t.Fatalf("Rep P4 on Example 8 = %v, want violated", rep.P4)
	}
}

// trivialFamily reproduces Example 6: all repairs unless the priority
// is total, in which case only the Algorithm 1 repair. It satisfies
// P1-P4 yet makes almost no use of the priority.
func trivialFamily(p *priority.Priority) []*bitset.Set {
	if p.IsTotal() {
		return []*bitset.Set{clean.Deterministic(p)}
	}
	return core.All(core.Rep, p)
}

func TestExample6TrivialFamilySatisfiesAxioms(t *testing.T) {
	sc := workload.Example9Mutual() // partial priority
	rep := Check(trivialFamily, sc.Pri, Options{})
	if rep.P1 != Holds || rep.P2 != Holds || rep.P3 != Holds || rep.P4 != Holds {
		t.Fatalf("Example 6 family should satisfy P1-P4, got %+v", rep)
	}
	// ... which is exactly the paper's point in §3: the axioms alone
	// do not force the priority to be used; optimality notions do.
	if got := len(trivialFamily(sc.Pri)); got != 2 {
		t.Fatalf("trivial family uses no priority: %d members", got)
	}
	if got := len(core.All(core.Global, sc.Pri)); got != 1 {
		t.Fatalf("G-Rep uses the priority: %d members", got)
	}
}

// pickyFamily violates P1 by returning nothing for partial
// priorities, and P3 by dropping repairs under the empty priority.
func pickyFamily(p *priority.Priority) []*bitset.Set {
	if !p.IsTotal() {
		return nil
	}
	return []*bitset.Set{clean.Deterministic(p)}
}

func TestViolationsDetected(t *testing.T) {
	sc := workload.Example9Mutual()
	rep := Check(pickyFamily, sc.Pri, Options{})
	if rep.P1 != Violated {
		t.Fatalf("P1 = %v, want violated", rep.P1)
	}
	if rep.P3 != Violated {
		t.Fatalf("P3 = %v, want violated", rep.P3)
	}
}

// antiMonotone violates P2: under a total priority it returns a
// repair that the partial priority's family does not contain.
func antiMonotone(p *priority.Priority) []*bitset.Set {
	all := core.All(core.Rep, p)
	if !p.IsTotal() {
		return all[:1]
	}
	return all
}

func TestP2ViolationDetected(t *testing.T) {
	sc := workload.Example9Mutual()
	rep := Check(antiMonotone, sc.Pri, Options{})
	if rep.P2 != Violated {
		t.Fatalf("P2 = %v, want violated", rep.P2)
	}
}

func TestP2NotApplicableOnTotal(t *testing.T) {
	sc := workload.Chain(4) // total chain priority
	rep := Check(FromCore(core.Global), sc.Pri, Options{})
	if rep.P2 != NotApplicable {
		t.Fatalf("P2 on total priority = %v, want n/a", rep.P2)
	}
}

func TestVerdictString(t *testing.T) {
	if Holds.String() != "holds" || Violated.String() != "violated" || NotApplicable.String() != "n/a" {
		t.Fatal("Verdict.String broken")
	}
	if Verdict(9).String() == "" {
		t.Fatal("unknown verdict should render")
	}
}
