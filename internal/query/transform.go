package query

import (
	"fmt"

	"prefcqa/internal/relation"
)

// Negate returns the logical negation of the formula in negation
// normal form (negations pushed to atoms, comparisons flipped).
func Negate(e Expr) Expr { return NNF(Not{Body: e}) }

// NNF converts the formula to negation normal form: negations apply
// only to relational atoms and order comparisons, equality operators
// are complemented, double negations vanish, and ¬∃/¬∀ become ∀¬/∃¬.
//
// Order comparisons (<, <=, >, >=) are NOT complemented into each
// other: the paper interprets order only on the integer domain, so
// the predicates are partial — ¬(a <= b) is not equivalent to a > b
// when a or b is a name (both are false). Equality is total on both
// domains, so = and != flip soundly.
func NNF(e Expr) Expr { return nnf(e, false) }

func nnf(e Expr, neg bool) Expr {
	switch n := e.(type) {
	case Bool:
		return Bool{Value: n.Value != neg}
	case Atom:
		if neg {
			return Not{Body: n}
		}
		return n
	case Cmp:
		if neg {
			if n.Op == EQ || n.Op == NE {
				return Cmp{Op: n.Op.Negate(), L: n.L, R: n.R}
			}
			return Not{Body: n}
		}
		return n
	case Not:
		return nnf(n.Body, !neg)
	case And:
		if neg {
			return Or{L: nnf(n.L, true), R: nnf(n.R, true)}
		}
		return And{L: nnf(n.L, false), R: nnf(n.R, false)}
	case Or:
		if neg {
			return And{L: nnf(n.L, true), R: nnf(n.R, true)}
		}
		return Or{L: nnf(n.L, false), R: nnf(n.R, false)}
	case Quant:
		return Quant{All: n.All != neg, Vars: n.Vars, Body: nnf(n.Body, neg)}
	default:
		return e
	}
}

// Substitute replaces free occurrences of variables by constants.
func Substitute(e Expr, env map[string]relation.Value) Expr {
	subTerm := func(t Term, bound map[string]bool) Term {
		if v, ok := t.(Var); ok && !bound[v.Name] {
			if val, ok := env[v.Name]; ok {
				return Const{Value: val}
			}
		}
		return t
	}
	var rec func(e Expr, bound map[string]bool) Expr
	rec = func(e Expr, bound map[string]bool) Expr {
		switch n := e.(type) {
		case Bool:
			return n
		case Atom:
			args := make([]Term, len(n.Args))
			for i, t := range n.Args {
				args[i] = subTerm(t, bound)
			}
			return Atom{Rel: n.Rel, Args: args}
		case Cmp:
			return Cmp{Op: n.Op, L: subTerm(n.L, bound), R: subTerm(n.R, bound)}
		case Not:
			return Not{Body: rec(n.Body, bound)}
		case And:
			return And{L: rec(n.L, bound), R: rec(n.R, bound)}
		case Or:
			return Or{L: rec(n.L, bound), R: rec(n.R, bound)}
		case Quant:
			inner := make(map[string]bool, len(bound)+len(n.Vars))
			for k := range bound {
				inner[k] = true
			}
			for _, v := range n.Vars {
				inner[v] = true
			}
			return Quant{All: n.All, Vars: n.Vars, Body: rec(n.Body, inner)}
		default:
			return e
		}
	}
	return rec(e, map[string]bool{})
}

// Literal is an atomic formula or its negation within a DNF disjunct.
type Literal struct {
	Negated bool
	// Exactly one of Atom and Cmp is meaningful, selected by IsCmp.
	IsCmp bool
	Atom  Atom
	Cmp   Cmp
}

// ToDNF converts a quantifier-free formula into disjunctive normal
// form: a list of disjuncts, each a list of literals. It fails on
// quantified formulas. Exponential in formula size (acceptable: data
// complexity treats the query as fixed, cf. §4.1).
func ToDNF(e Expr) ([][]Literal, error) {
	if !IsQuantifierFree(e) {
		return nil, fmt.Errorf("query: ToDNF needs a quantifier-free formula, got %s", e)
	}
	n := NNF(e)
	return dnf(n)
}

func dnf(e Expr) ([][]Literal, error) {
	switch x := e.(type) {
	case Bool:
		if x.Value {
			return [][]Literal{{}}, nil // one empty (always-true) disjunct
		}
		return nil, nil // no disjuncts: unsatisfiable
	case Atom:
		return [][]Literal{{{Atom: x}}}, nil
	case Cmp:
		return [][]Literal{{{IsCmp: true, Cmp: x}}}, nil
	case Not:
		// NNF guarantees the body is an atom or an order comparison.
		switch b := x.Body.(type) {
		case Atom:
			return [][]Literal{{{Negated: true, Atom: b}}}, nil
		case Cmp:
			return [][]Literal{{{Negated: true, IsCmp: true, Cmp: b}}}, nil
		default:
			return nil, fmt.Errorf("query: non-NNF negation of %s", x.Body)
		}
	case Or:
		l, err := dnf(x.L)
		if err != nil {
			return nil, err
		}
		r, err := dnf(x.R)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case And:
		l, err := dnf(x.L)
		if err != nil {
			return nil, err
		}
		r, err := dnf(x.R)
		if err != nil {
			return nil, err
		}
		var out [][]Literal
		for _, dl := range l {
			for _, dr := range r {
				d := make([]Literal, 0, len(dl)+len(dr))
				d = append(d, dl...)
				d = append(d, dr...)
				out = append(out, d)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("query: unexpected node %T in DNF conversion", e)
	}
}
