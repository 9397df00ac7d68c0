package cqa

import (
	"fmt"

	"prefcqa/internal/conflict"
	"prefcqa/internal/query"
	"prefcqa/internal/relation"
)

// GroundQFCertain decides, in polynomial time in the database size,
// whether true is the (plain Rep) consistent answer to a ground
// quantifier-free query — the PTIME cell of Fig. 5's first row,
// following the conflict-graph technique of Chomicki & Marcinkowski
// [6]. The method: true is NOT certain iff some repair satisfies ¬Q;
// put ¬Q in DNF and look for a disjunct D and a repair containing all
// positive facts of D while avoiding all negated ones. Such a repair
// exists iff the positive facts are present and conflict-free and
// every present negated fact can be "covered" by a witness tuple that
// conflicts it, avoids the negated facts, and stays consistent with
// the positive facts and the other witnesses. The witness search
// branches only over the negated facts — bounded by query size — so
// data complexity stays polynomial.
//
// No served query takes this path: it is kept as the tested reproduction
// of that cell (TestGroundQFAgainstNaive holds it to the enumeration of
// all repairs). A served ground query takes evaluateClosed like every
// other closed query — for all five families, exponential only in the
// touched multi-choice components, of which a ground query has at most
// one per atom. Atoms and comparisons are decided by the query
// package's own evaluator and support analysis, not by copies of their
// semantics.
func GroundQFCertain(in Input, q query.Expr) (bool, error) {
	if err := query.Validate(q, in.schemas()); err != nil {
		return false, err
	}
	if !query.IsGround(q) {
		return false, fmt.Errorf("cqa: GroundQFCertain needs a ground quantifier-free query, got %s", q)
	}
	neg := query.Negate(q)
	dnf, err := query.ToDNF(neg)
	if err != nil {
		return false, err
	}
	for _, disj := range dnf {
		sat, err := in.disjunctSatisfiableInSomeRepair(disj)
		if err != nil {
			return false, err
		}
		if sat {
			return false, nil // a repair falsifies Q
		}
	}
	return true, nil
}

// GroundQFEvaluate computes the three-valued Rep answer to a ground
// quantifier-free query in polynomial time.
func GroundQFEvaluate(in Input, q query.Expr) (Answer, error) {
	t, err := GroundQFCertain(in, q)
	if err != nil {
		return 0, err
	}
	if t {
		return CertainlyTrue, nil
	}
	f, err := GroundQFCertain(in, query.Negate(q))
	if err != nil {
		return 0, err
	}
	if f {
		return CertainlyFalse, nil
	}
	return Undetermined, nil
}

// fact identifies a tuple of one relation in the input.
type fact struct {
	rel int // index into in.Rels
	id  relation.TupleID
}

// tupleSet is a tiny unsorted set of tuple IDs. The witness search
// only ever holds O(|Q|) tuples per relation — the query's literals
// plus one witness per negated fact — so linear membership beats any
// instance-sized structure: these sets replace the bitsets that were
// previously allocated at instance size per disjunct.
type tupleSet []relation.TupleID

func (s tupleSet) has(id relation.TupleID) bool {
	for _, x := range s {
		if x == id {
			return true
		}
	}
	return false
}

// conflictsAny reports whether tuple id conflicts (in graph g) with
// any member of the set.
func (s tupleSet) conflictsAny(g *conflict.Graph, id relation.TupleID) bool {
	for _, x := range s {
		if g.Adjacent(id, x) {
			return true
		}
	}
	return false
}

// disjunctSatisfiableInSomeRepair decides whether some repair
// contains every positive fact of the disjunct and none of the
// negated ones (and the ground comparisons hold).
func (in Input) disjunctSatisfiableInSomeRepair(disj []query.Literal) (bool, error) {
	var pos, negPresent []fact
	for _, lit := range disj {
		if lit.IsCmp {
			// Ground: the same in every repair.
			holds, err := query.Eval(lit.Cmp, in.model(nil))
			if err != nil {
				return false, err
			}
			if lit.Negated {
				holds = !holds
			}
			if !holds {
				return false, nil // comparison fixed false: disjunct unsatisfiable
			}
			continue
		}
		ri, id, present := in.lookupAtom(lit.Atom)
		if lit.Negated {
			if present {
				negPresent = append(negPresent, fact{rel: ri, id: id})
			}
			// Absent negated fact: no repair contains it — satisfied.
			continue
		}
		if !present {
			return false, nil // positive fact not in r: no repair has it
		}
		pos = append(pos, fact{rel: ri, id: id})
	}
	// Positive facts must be mutually consistent and disjoint from the
	// negated ones. Both working sets are sized by the query's literal
	// count, never the instance.
	chosen := make([]tupleSet, len(in.Rels))
	negSet := make([]tupleSet, len(in.Rels))
	for _, f := range negPresent {
		negSet[f.rel] = append(negSet[f.rel], f.id)
	}
	for _, f := range pos {
		if negSet[f.rel].has(f.id) {
			return false, nil // same fact both required and forbidden
		}
		if chosen[f.rel].conflictsAny(in.Rels[f.rel].Pri.Graph(), f.id) {
			return false, nil // positive facts conflict each other
		}
		chosen[f.rel] = append(chosen[f.rel], f.id)
	}
	// Every present negated fact must conflict something chosen; the
	// witness search branches over the |N| facts only.
	return in.coverNegated(negPresent, chosen, negSet), nil
}

// coverNegated tries to extend the chosen sets so that every negated
// fact conflicts a chosen tuple, keeping the chosen sets independent
// and disjoint from the negated facts. Any such family extends to a
// repair avoiding all negated facts.
func (in Input) coverNegated(negPresent []fact, chosen, negSet []tupleSet) bool {
	if len(negPresent) == 0 {
		return true
	}
	f := negPresent[0]
	g := in.Rels[f.rel].Pri.Graph()
	if chosen[f.rel].conflictsAny(g, f.id) {
		// Already excluded by a chosen tuple.
		return in.coverNegated(negPresent[1:], chosen, negSet)
	}
	for _, w32 := range g.Neighbors(f.id) {
		w := relation.TupleID(w32)
		if negSet[f.rel].has(w) {
			continue // witnesses must avoid the negated facts
		}
		if chosen[f.rel].conflictsAny(g, w) {
			continue // witness must stay consistent with choices
		}
		chosen[f.rel] = append(chosen[f.rel], w)
		ok := in.coverNegated(negPresent[1:], chosen, negSet)
		chosen[f.rel] = chosen[f.rel][:len(chosen[f.rel])-1]
		if ok {
			return true
		}
	}
	return false
}

// lookupAtom resolves a ground atom of a validated query to (relation
// index, tuple ID, present): the support of a ground atom is the tuple
// it names, if that tuple is live.
func (in Input) lookupAtom(a query.Atom) (ri int, id relation.TupleID, present bool) {
	for ri = range in.Rels {
		if in.Rels[ri].Inst.Schema().Name() == a.Rel {
			break
		}
	}
	if sup, ok := query.AnalyzeSupport(query.Analyze(a), in.model(nil)); ok {
		if ids, _ := sup.TouchedIDs(a.Rel); len(ids) > 0 {
			return ri, ids[0], true
		}
	}
	return ri, 0, false
}
