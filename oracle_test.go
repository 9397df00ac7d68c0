package prefcqa

import (
	"sort"
	"testing"

	"prefcqa/internal/query"
	"prefcqa/internal/relation"
)

// The definitional oracle: Definition 3 read literally. The preferred
// repairs of the database are the product, over relations, of each
// relation's preferred repairs, every one MATERIALIZED as a standalone
// instance (no tuple-ID views, no postings shared with the database
// under test); a closed query's verdict is its value under
// active-domain iteration (query.EvalNaive — no planner, no executor)
// in every one of them. Exponential on purpose; use on small inputs.

// oracleRepairs materializes the family's preferred repairs of the
// whole pinned database, one model per repair.
func oracleRepairs(t *testing.T, s *Snapshot, f Family) []query.Model {
	t.Helper()
	combos := [][]*Instance{nil}
	for _, rel := range s.Relations() {
		reps, err := s.Repairs(f, rel)
		if err != nil {
			t.Fatalf("oracle: Repairs(%v, %s): %v", f, rel, err)
		}
		var next [][]*Instance
		for _, c := range combos {
			for _, rp := range reps {
				next = append(next, append(c[:len(c):len(c)], rp))
			}
		}
		combos = next
	}
	models := make([]query.Model, len(combos))
	for i, c := range combos {
		db := relation.NewDatabase()
		for _, inst := range c {
			if err := db.AddInstance(inst); err != nil {
				t.Fatalf("oracle: %v", err)
			}
		}
		models[i] = query.DBModel{DB: db}
	}
	return models
}

// oracleVerdict is the three-valued answer to the closed query over
// the materialized repairs.
func oracleVerdict(t *testing.T, repairs []query.Model, src string) Answer {
	t.Helper()
	return oracleVerdictExpr(t, repairs, query.MustParse(src))
}

func oracleVerdictExpr(t *testing.T, repairs []query.Model, q query.Expr) Answer {
	t.Helper()
	if len(repairs) == 0 {
		t.Fatal("oracle: no preferred repairs (P1 violated?)")
	}
	seenTrue, seenFalse := false, false
	for _, m := range repairs {
		holds, err := query.EvalNaive(q, m)
		if err != nil {
			t.Fatalf("oracle: EvalNaive(%s): %v", q, err)
		}
		if holds {
			seenTrue = true
		} else {
			seenFalse = true
		}
	}
	switch {
	case !seenFalse:
		return True
	case !seenTrue:
		return False
	default:
		return Undetermined
	}
}

// oracleOpen answers an open query with the single free variable x by
// substitution: every value of the pinned database's active domain
// (plus the query's constants) is tried, and kept when the
// instantiated closed query is certainly true. The result is the
// sorted rendering of the surviving bindings.
func oracleOpen(t *testing.T, s *Snapshot, repairs []query.Model, src, x string) []string {
	t.Helper()
	q := query.MustParse(src)
	domain := map[string]Value{}
	for _, v := range query.Constants(q) {
		domain[v.String()] = v
	}
	for _, rel := range s.Relations() {
		inst, _ := s.Instance(rel)
		inst.Range(func(_ TupleID, tup Tuple) bool {
			for _, v := range tup {
				domain[v.String()] = v
			}
			return true
		})
	}
	var out []string
	for _, v := range domain {
		closed := query.Substitute(q, map[string]Value{x: v})
		if oracleVerdictExpr(t, repairs, closed) == True {
			out = append(out, Binding{x: v}.String())
		}
	}
	sort.Strings(out)
	return out
}
