package cqa

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"prefcqa/internal/core"
	"prefcqa/internal/query"
	"prefcqa/internal/relation"
)

// Binding is one certain answer to an open query: an assignment of
// its free variables.
type Binding map[string]relation.Value

// String renders the binding deterministically, e.g. "{x=1, y='a'}".
func (b Binding) String() string {
	names := make([]string, 0, len(b))
	for n := range b {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=" + b[n].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// FreeAnswers computes the certain answers to an open query over the
// family f: the substitutions of the free variables (drawn from the
// active domain of the database plus the query constants) for which
// the instantiated query holds in every preferred repair. This
// extends Definition 3 to open queries along the lines of [1, 7].
//
// The query is compiled once and its candidate bindings enumerated off
// the columnar data (query.EnumerateOpen): a certain answer must hold
// in some preferred repair, every repair is a subset of the database,
// and the positive spine is monotone — so the candidates over the full
// database are a superset of the answers, and only they pay a
// certain-answer check. A free variable no positive atom binds is
// pinned by a top-level equality or ranges over the active domain,
// bounded by query.MaxOpenVariables.
func FreeAnswers(f core.Family, in Input, q query.Expr) ([]Binding, error) {
	if err := query.Validate(q, in.schemas()); err != nil {
		return nil, err
	}
	return FreeAnswersAnalyzed(f, in, query.Analyze(q))
}

// FreeAnswersAnalyzed is FreeAnswers on a query already analysed and
// validated against in's schemas — what a QueryCache hands out.
func FreeAnswersAnalyzed(f core.Family, in Input, a *query.Analyzed) ([]Binding, error) {
	if len(a.Free) == 0 {
		return nil, fmt.Errorf("cqa: query is closed; use Evaluate")
	}
	// The candidates come from the FULL database (nil subsets): every
	// preferred repair is a subset of it.
	var (
		cands  [][]relation.Value
		seen   = map[string]bool{}
		keyBuf []byte
	)
	spine, err := query.EnumerateOpen(in.Ctx, in.model(nil), a, func(vals []relation.Value) bool {
		keyBuf = keyBuf[:0]
		for _, v := range vals {
			keyBuf = v.AppendKey(keyBuf)
		}
		if seen[string(keyBuf)] {
			return true
		}
		seen[string(keyBuf)] = true
		cands = append(cands, append([]relation.Value(nil), vals...))
		return true
	})
	if err != nil {
		return nil, err
	}
	// Candidates in ascending lexicographic order of the binding tuple.
	slices.SortFunc(cands, func(x, y []relation.Value) int {
		for k := range x {
			if c := x[k].Order(y[k]); c != 0 {
				return c
			}
		}
		return 0
	})
	var answers []Binding
	env := make(map[string]relation.Value, len(a.Free))
	for _, vals := range cands {
		for i, name := range spine.Vars {
			env[name] = vals[i]
		}
		if answers, err = appendIfCertain(answers, f, in, a.Expr, env); err != nil {
			return nil, err
		}
	}
	in.Stats.noteOpen(spine.Executor, spine.Ranged == 0)
	return answers, nil
}

// appendIfCertain verifies one candidate: q with its free variables
// bound by env is a closed query, and env (copied) joins the answers if
// that query is certainly true.
func appendIfCertain(answers []Binding, f core.Family, in Input, q query.Expr, env map[string]relation.Value) ([]Binding, error) {
	a, err := evaluateClosed(f, in, query.Analyze(query.Substitute(q, env)))
	if err != nil || a != CertainlyTrue {
		return answers, err
	}
	return append(answers, maps.Clone(env)), nil
}
