// Package query implements the paper's query language: first-order
// formulas over the database relations and the binary predicates
// =, ≠, <, > (plus ≤, ≥ sugar), with < and > interpreted on the
// integer domain N only (§2). It provides a parser, standard formula
// transformations (NNF, DNF, substitution), and a model-theoretic
// evaluator with active-domain quantifier semantics, evaluating
// repairs as views (instance + tuple subset) without materializing
// them.
//
// Concrete syntax (case-insensitive keywords):
//
//	EXISTS d1, s1, r1, d2, s2, r2 .
//	    Mgr('Mary', d1, s1, r1) AND Mgr('John', d2, s2, r2) AND s1 < s2
//
// Identifiers are variables; constants are single- or double-quoted
// names ('Mary') or integer literals. Operators: = != <> < <= > >=,
// connectives AND OR NOT, quantifiers EXISTS/FORALL v1, v2 . body,
// constants TRUE/FALSE, parentheses for grouping.
package query

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"prefcqa/internal/relation"
)

// Term is a variable or a constant.
type Term interface {
	fmt.Stringer
	isTerm()
}

// Var is a variable term.
type Var struct{ Name string }

func (Var) isTerm() {}

// String returns the variable name.
func (v Var) String() string { return v.Name }

// Const is a constant term (a name from D or an integer from N).
type Const struct{ Value relation.Value }

func (Const) isTerm() {}

// String renders the constant in query syntax.
func (c Const) String() string { return c.Value.String() }

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators. EQ and NE apply to both domains; LT, LE, GT
// and GE only to integers.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the concrete syntax of the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Negate returns the complementary operator.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	default:
		return op
	}
}

// Expr is a first-order formula node.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Bool is the constant TRUE or FALSE.
type Bool struct{ Value bool }

// Atom is a relational atom R(t1, ..., tk).
type Atom struct {
	Rel  string
	Args []Term
}

// Cmp is a comparison t1 op t2.
type Cmp struct {
	Op   CmpOp
	L, R Term
}

// Not is negation.
type Not struct{ Body Expr }

// And is binary conjunction.
type And struct{ L, R Expr }

// Or is binary disjunction.
type Or struct{ L, R Expr }

// Quant is EXISTS (All=false) or FORALL (All=true) over one or more
// variables.
type Quant struct {
	All  bool
	Vars []string
	Body Expr
	// blk is the quantifier's analysed block, set by Analyze (a Quant
	// built any other way has none).
	blk *block
}

func (Bool) isExpr()  {}
func (Atom) isExpr()  {}
func (Cmp) isExpr()   {}
func (Not) isExpr()   {}
func (And) isExpr()   {}
func (Or) isExpr()    {}
func (Quant) isExpr() {}

// String renders TRUE or FALSE.
func (b Bool) String() string {
	if b.Value {
		return "TRUE"
	}
	return "FALSE"
}

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Rel + "(" + strings.Join(parts, ", ") + ")"
}

// String renders the comparison.
func (c Cmp) String() string { return c.L.String() + " " + c.Op.String() + " " + c.R.String() }

// String renders the negation.
func (n Not) String() string { return "NOT " + parenthesize(n.Body) }

// String renders the conjunction.
func (a And) String() string { return parenthesize(a.L) + " AND " + parenthesize(a.R) }

// String renders the disjunction.
func (o Or) String() string { return parenthesize(o.L) + " OR " + parenthesize(o.R) }

// String renders the quantifier.
func (q Quant) String() string {
	kw := "EXISTS"
	if q.All {
		kw = "FORALL"
	}
	return kw + " " + strings.Join(q.Vars, ", ") + " . " + q.Body.String()
}

func parenthesize(e Expr) string {
	switch e.(type) {
	case Bool, Atom, Cmp, Not:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

// FreeVars returns the free variables of the formula in sorted order;
// nil when it is closed.
func FreeVars(e Expr) []string {
	out := collectFree(e, nil, nil)
	sort.Strings(out)
	return out
}

// collectFree appends to out the variables of e not in bound and not in
// out already. A formula has a handful of variables, so slices serve
// where sets would allocate.
func collectFree(e Expr, bound, out []string) []string {
	add := func(t Term) {
		if v, ok := t.(Var); ok && !slices.Contains(bound, v.Name) && !slices.Contains(out, v.Name) {
			out = append(out, v.Name)
		}
	}
	switch n := e.(type) {
	case Atom:
		for _, t := range n.Args {
			add(t)
		}
	case Cmp:
		add(n.L)
		add(n.R)
	case Not:
		out = collectFree(n.Body, bound, out)
	case And:
		out = collectFree(n.R, bound, collectFree(n.L, bound, out))
	case Or:
		out = collectFree(n.R, bound, collectFree(n.L, bound, out))
	case Quant:
		out = collectFree(n.Body, append(slices.Clip(bound), n.Vars...), out)
	}
	return out
}

// IsQuantifierFree reports whether the formula contains no
// quantifiers ({∀,∃}-free in Fig. 5).
func IsQuantifierFree(e Expr) bool {
	switch n := e.(type) {
	case Bool, Atom, Cmp:
		return true
	case Not:
		return IsQuantifierFree(n.Body)
	case And:
		return IsQuantifierFree(n.L) && IsQuantifierFree(n.R)
	case Or:
		return IsQuantifierFree(n.L) && IsQuantifierFree(n.R)
	default:
		return false
	}
}

// IsGround reports whether the formula has no variables at all.
func IsGround(e Expr) bool {
	return IsQuantifierFree(e) && len(FreeVars(e)) == 0
}

// Constants returns every constant value mentioned in the formula.
func Constants(e Expr) []relation.Value {
	var out []relation.Value
	var walkTerm func(t Term)
	walkTerm = func(t Term) {
		if c, ok := t.(Const); ok {
			out = append(out, c.Value)
		}
	}
	Walk(e, func(x Expr) {
		switch n := x.(type) {
		case Atom:
			for _, t := range n.Args {
				walkTerm(t)
			}
		case Cmp:
			walkTerm(n.L)
			walkTerm(n.R)
		}
	})
	return out
}

// Walk calls fn on every node of the formula in prefix order.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	switch n := e.(type) {
	case Not:
		Walk(n.Body, fn)
	case And:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case Or:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case Quant:
		Walk(n.Body, fn)
	}
}

// Validate checks the formula against the database schemas: every
// atom's relation must exist with matching arity, constants must
// match attribute kinds, and order comparisons must not involve
// name-typed constants.
func Validate(e Expr, schemas map[string]*relation.Schema) error {
	var err error
	Walk(e, func(x Expr) {
		if err != nil {
			return
		}
		switch n := x.(type) {
		case Atom:
			s, ok := schemas[n.Rel]
			if !ok {
				err = fmt.Errorf("query: unknown relation %q", n.Rel)
				return
			}
			if len(n.Args) != s.Arity() {
				err = fmt.Errorf("query: %s expects %d arguments, got %d", n.Rel, s.Arity(), len(n.Args))
				return
			}
			for i, t := range n.Args {
				if c, ok := t.(Const); ok && c.Value.Kind() != s.Attr(i).Kind {
					err = fmt.Errorf("query: %s.%s expects %s, got %s",
						n.Rel, s.Attr(i).Name, s.Attr(i).Kind, c.Value)
					return
				}
			}
		case Cmp:
			if n.Op == EQ || n.Op == NE {
				return
			}
			for _, t := range []Term{n.L, n.R} {
				if c, ok := t.(Const); ok && c.Value.Kind() != relation.KindInt {
					err = fmt.Errorf("query: order comparison %s on name constant %s", n.Op, c.Value)
					return
				}
			}
		}
	})
	return err
}
