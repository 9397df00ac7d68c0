package cqa

import (
	"prefcqa/internal/bitset"
	"prefcqa/internal/core"
	"prefcqa/internal/query"
)

// The reference the one closed-query path (evaluateClosed) is tested
// against: Definition 3 read literally — walk the preferred repairs of
// the whole database and evaluate the query afresh in each.

// forEachPreferredRepair enumerates the preferred repairs of the
// whole database — the product of per-relation preferred repairs, the
// first relation varying slowest — and calls visit with one subset per
// relation. The subsets are the walk's own sets, mutated in place
// between visits. visit returns false to stop. Every relation's
// Resolved is read (built on the version's first use) and one
// core.Walk runs over all of them, so a visit costs the bits that
// differ from the previous one, not a pass over the database. A
// non-nil error is the input context's cancellation, checked once per
// visited repair (an early visit stop is not an error).
func (in Input) forEachPreferredRepair(f core.Family, visit func(map[string]*bitset.Set) bool) error {
	ctx := in.ctx()
	subsets := make(map[string]*bitset.Set, len(in.Rels))
	parts := make([]core.Part, len(in.Rels))
	for i, r := range in.Rels {
		res, err := r.Resolved(ctx, in.engine(), f)
		if err != nil {
			return err
		}
		parts[i] = res.Part()
		subsets[r.Inst.Schema().Name()] = parts[i].Set
	}
	var err error
	core.Walk(parts, func() bool {
		if err = ctx.Err(); err != nil {
			return false
		}
		return visit(subsets)
	})
	return err
}

// evaluateFull enumerates the preferred repairs of the whole database
// and evaluates q on each.
func evaluateFull(f core.Family, in Input, q query.Expr) (Answer, error) {
	in.Stats.noteClosed(false)
	seenTrue, seenFalse := false, false
	var evalErr error
	walkErr := in.forEachPreferredRepair(f, func(subsets map[string]*bitset.Set) bool {
		holds, err := query.EvalCtx(in.Ctx, q, in.model(subsets))
		if err != nil {
			evalErr = err
			return false
		}
		if holds {
			seenTrue = true
		} else {
			seenFalse = true
		}
		return !(seenTrue && seenFalse)
	})
	if evalErr != nil {
		return 0, evalErr
	}
	if walkErr != nil {
		return 0, walkErr
	}
	return verdict(seenTrue, seenFalse)
}
