package cqa

import (
	"errors"
	"fmt"
	"maps"
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

// MaxOpenVariables bounds the active-domain exponent of the
// SUBSTITUTION fallback for open-query answering, which enumerates up
// to |domain|^k closed instantiations. The direct-enumeration path
// (the default for positive conjunctive spines) never enumerates the
// domain product and is not subject to the bound.
const MaxOpenVariables = 4

// OpenLimitError reports an open query the substitution fallback
// refuses: more free variables than MaxOpenVariables, together with
// why the direct-enumeration path did not apply.
type OpenLimitError struct {
	Variables int    // free variables in the query
	Limit     int    // MaxOpenVariables
	Reason    string // why direct enumeration fell back to substitution
}

func (e *OpenLimitError) Error() string {
	return fmt.Sprintf("cqa: open query has %d free variables, substitution limit %d (direct enumeration unavailable: %s)",
		e.Variables, e.Limit, e.Reason)
}

// FreeAnswers computes the certain answers to an open query over the
// family f: the substitutions of the free variables (drawn from the
// active domain of the database plus the query constants) for which
// the instantiated query holds in every preferred repair. This
// extends Definition 3 to open queries along the lines of [1, 7].
//
// Two strategies implement the same answer set. The direct path
// compiles the query once and enumerates candidate bindings off the
// columnar data (query.EnumerateOpen): a certain answer must hold in
// some preferred repair, every repair is a subset of the database,
// and the positive spine is monotone — so the spine's matches over
// the full database are a superset of the answers, and only the
// surviving candidates pay a certain-answer check. When the query has
// no such spine (free variables under negation or disjunction only),
// the substitution fallback instantiates the query over the
// kind-pruned active domain per variable, bounded by
// MaxOpenVariables. Both paths return identical slices, pinned by
// differential tests that call freeAnswersSubst directly.
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
	answers, reason, ok, err := freeAnswersDirect(f, in, a)
	if err != nil {
		return nil, err
	}
	if ok {
		return answers, nil
	}
	return freeAnswersSubst(f, in, a.Expr, a.Free, reason)
}

// freeAnswersDirect answers the open query by spine enumeration.
// ok=false (with a reason) means the path does not apply and nothing
// was evaluated; the caller falls back to substitution.
func freeAnswersDirect(f core.Family, in Input, a *query.Analyzed) (answers []Binding, reason string, ok bool, err error) {
	// The candidate spine runs over the FULL database (nil subsets):
	// every preferred repair is a subset of it, so spine matches over
	// it form a superset of the certain answers.
	m := in.model(nil)
	var (
		cands  [][]relation.Value
		seen   = map[string]bool{}
		keyBuf []byte
	)
	spine, enumErr := query.EnumerateOpen(in.Ctx, m, a, func(vals []relation.Value) bool {
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
	if enumErr != nil {
		var unsup *query.OpenUnsupportedError
		if errors.As(enumErr, &unsup) {
			return nil, unsup.Reason, false, nil
		}
		return nil, "", false, enumErr
	}
	// Candidates in ascending lexicographic order of the binding tuple:
	// the same order the substitution fallback's nested sorted-domain
	// loops produce, so the two paths return identical slices.
	sort.Slice(cands, func(i, j int) bool {
		for k := range cands[i] {
			if c := cands[i][k].Order(cands[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	env := make(map[string]relation.Value, len(a.Free))
	for _, vals := range cands {
		for i, name := range spine.Vars {
			env[name] = vals[i]
		}
		if answers, err = appendIfCertain(answers, f, in, a.Expr, env); err != nil {
			return nil, "", false, err
		}
	}
	in.Stats.noteOpen(spine.Executor, true)
	return answers, "", true, nil
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

// freeAnswersSubst answers the open query by active-domain
// substitution: one closed evaluation per kind-compatible combination
// of per-variable domains, bounded by MaxOpenVariables. reason names
// why the direct path did not apply (it surfaces in OpenLimitError).
func freeAnswersSubst(f core.Family, in Input, q query.Expr, vars []string, reason string) ([]Binding, error) {
	if len(vars) > MaxOpenVariables {
		return nil, &OpenLimitError{Variables: len(vars), Limit: MaxOpenVariables, Reason: reason}
	}
	domains := in.varDomains(q, vars)
	var answers []Binding
	env := make(map[string]relation.Value, len(vars))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(vars) {
			var err error
			answers, err = appendIfCertain(answers, f, in, q, env)
			return err
		}
		for _, v := range domains[i] {
			env[vars[i]] = v
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		delete(env, vars[i])
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	in.Stats.noteOpen("", false)
	return answers, nil
}

// varDomains collects the per-variable substitution domains: the
// distinct live values of the database plus the query constants,
// pooled per kind with native dedup (no re-stringifying), sorted
// ascending, and pruned per variable by kindVerdict — a variable the
// query can only satisfy at int positions never tries names, and vice
// versa. Ints precede names, matching Value.Order.
func (in Input) varDomains(q query.Expr, vars []string) [][]relation.Value {
	intSet := map[int64]struct{}{}
	nameSet := map[string]struct{}{}
	add := func(v relation.Value) {
		switch v.Kind() {
		case relation.KindInt:
			intSet[v.AsInt()] = struct{}{}
		case relation.KindName:
			nameSet[v.AsName()] = struct{}{}
		}
	}
	var scratch []relation.Value
	for _, r := range in.Rels {
		for attr := 0; attr < r.Inst.Schema().Arity(); attr++ {
			scratch = r.Inst.DistinctValuesLive(attr, scratch[:0])
			for _, v := range scratch {
				add(v)
			}
		}
	}
	for _, v := range query.Constants(q) {
		add(v)
	}
	ints := make([]int64, 0, len(intSet))
	for i := range intSet {
		ints = append(ints, i)
	}
	sort.Slice(ints, func(i, j int) bool { return ints[i] < ints[j] })
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)

	schemas := in.schemas()
	domains := make([][]relation.Value, len(vars))
	for i, name := range vars {
		intOK := kindVerdict(q, schemas, name, relation.KindInt) != kindFalse
		nameOK := kindVerdict(q, schemas, name, relation.KindName) != kindFalse
		d := make([]relation.Value, 0, len(ints)+len(names))
		if intOK {
			for _, v := range ints {
				d = append(d, relation.Int(v))
			}
		}
		if nameOK {
			for _, v := range names {
				d = append(d, relation.Name(v))
			}
		}
		domains[i] = d
	}
	return domains
}

// kv is the three-valued result of kindVerdict.
type kv int

const (
	kindUnknown kv = iota // truth may depend on the value (or the data)
	kindTrue              // the formula is true for EVERY value of the kind
	kindFalse             // the formula is false for EVERY value of the kind
)

// kindVerdict conservatively evaluates e under "x is some value of
// kind k, everything else unknown". kindFalse licenses pruning kind k
// from x's substitution domain: no value of that kind can be an
// answer. The fold mirrors the evaluator's semantics exactly — a
// kind-mismatched atom position is false, order comparisons are false
// on names — and treats quantifiers with care: an empty active domain
// makes FORALL true and EXISTS false whatever the body, so only the
// verdicts unaffected by emptiness propagate.
func kindVerdict(e query.Expr, schemas map[string]*relation.Schema, x string, k relation.Kind) kv {
	switch n := e.(type) {
	case query.Bool:
		if n.Value {
			return kindTrue
		}
		return kindFalse
	case query.Atom:
		s, ok := schemas[n.Rel]
		if !ok || s.Arity() != len(n.Args) {
			return kindUnknown // Validate already rejected these shapes
		}
		for i, t := range n.Args {
			if v, isVar := t.(query.Var); isVar && v.Name == x && s.Attr(i).Kind != k {
				return kindFalse
			}
		}
		return kindUnknown
	case query.Cmp:
		lx := isVarNamed(n.L, x)
		rx := isVarNamed(n.R, x)
		if !lx && !rx {
			return kindUnknown
		}
		order := n.Op != query.EQ && n.Op != query.NE
		if order && k == relation.KindName {
			// Order comparisons are false whenever an operand is a name.
			return kindFalse
		}
		if lx && rx {
			switch n.Op {
			case query.EQ, query.LE, query.GE:
				return kindTrue // x = x; x <= x on ints (names handled above)
			default:
				return kindFalse // x != x; x < x; x > x
			}
		}
		// x against the other operand.
		other := n.R
		if rx {
			other = n.L
		}
		c, isConst := other.(query.Const)
		if !isConst {
			return kindUnknown
		}
		if order && c.Value.Kind() != relation.KindInt {
			return kindFalse
		}
		if c.Value.Kind() != k {
			// Cross-kind: equality is false, inequality true; order
			// comparisons with k = int against a name constant are false.
			switch n.Op {
			case query.EQ:
				return kindFalse
			case query.NE:
				return kindTrue
			default:
				return kindFalse
			}
		}
		return kindUnknown // same kind: depends on the value
	case query.Not:
		switch kindVerdict(n.Body, schemas, x, k) {
		case kindTrue:
			return kindFalse
		case kindFalse:
			return kindTrue
		}
		return kindUnknown
	case query.And:
		l := kindVerdict(n.L, schemas, x, k)
		r := kindVerdict(n.R, schemas, x, k)
		if l == kindFalse || r == kindFalse {
			return kindFalse
		}
		if l == kindTrue && r == kindTrue {
			return kindTrue
		}
		return kindUnknown
	case query.Or:
		l := kindVerdict(n.L, schemas, x, k)
		r := kindVerdict(n.R, schemas, x, k)
		if l == kindTrue || r == kindTrue {
			return kindTrue
		}
		if l == kindFalse && r == kindFalse {
			return kindFalse
		}
		return kindUnknown
	case query.Quant:
		for _, v := range n.Vars {
			if v == x {
				return kindUnknown // x is shadowed: e does not depend on it
			}
		}
		sub := kindVerdict(n.Body, schemas, x, k)
		if n.All {
			if sub == kindTrue {
				return kindTrue // vacuous truth agrees on an empty domain
			}
		} else {
			if sub == kindFalse {
				return kindFalse // no witness; empty domain agrees
			}
		}
		return kindUnknown
	}
	return kindUnknown
}

// isVarNamed reports whether the term is the variable x.
func isVarNamed(t query.Term, x string) bool {
	v, ok := t.(query.Var)
	return ok && v.Name == x
}
