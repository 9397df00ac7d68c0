package fd

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"prefcqa/internal/relation"
)

// Set is a set of functional dependencies over one schema.
type Set struct {
	schema *relation.Schema
	fds    []FD
}

// NewSet builds a set over the schema; all FDs must share it.
func NewSet(schema *relation.Schema, fds ...FD) (*Set, error) {
	s := &Set{schema: schema}
	for _, f := range fds {
		if err := s.Add(f); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ParseSet parses a list of "X -> Y" strings over the schema.
func ParseSet(schema *relation.Schema, specs ...string) (*Set, error) {
	s := &Set{schema: schema}
	for _, spec := range specs {
		f, err := Parse(schema, spec)
		if err != nil {
			return nil, err
		}
		if err := s.Add(f); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustParseSet is ParseSet that panics on error, for fixtures.
func MustParseSet(schema *relation.Schema, specs ...string) *Set {
	s, err := ParseSet(schema, specs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Add appends an FD; duplicates are ignored.
func (s *Set) Add(f FD) error {
	if !f.schema.Equal(s.schema) {
		return fmt.Errorf("fd: dependency %s is over schema %s, set is over %s", f, f.schema, s.schema)
	}
	for _, g := range s.fds {
		if f.Equal(g) {
			return nil
		}
	}
	s.fds = append(s.fds, f)
	return nil
}

// Schema returns the common schema.
func (s *Set) Schema() *relation.Schema { return s.schema }

// Len returns the number of dependencies.
func (s *Set) Len() int { return len(s.fds) }

// FD returns the i-th dependency.
func (s *Set) FD(i int) FD { return s.fds[i] }

// All returns a copy of the dependency list.
func (s *Set) All() []FD { return append([]FD(nil), s.fds...) }

// Violation is a pair of conflicting tuples and the dependency they
// violate.
type Violation struct {
	T1, T2 relation.TupleID
	FD     int // index into the set
}

// Violations lists all conflicting tuple pairs (T1 < T2) in the
// instance, one entry per violated dependency, sorted by (T1, T2, FD).
//
// Per dependency the live tuples come laid out by LHS group, off the
// instance's partition on the LHS (built on first use, then kept by the
// instance). A group whose tuples all agree on the RHS costs one pass;
// any other is sorted by RHS value in place, so its RHS classes are
// runs, and every pair across two runs is a conflict. A count pass over
// the runs sizes the list before a fill pass writes it, so the list is
// allocated once. Nothing is allocated per group, and no group is
// scanned pair by pair: a group of s tuples costs O(s) when it holds no
// conflict, else O(s log s) against its at least s-1 conflicts.
func (s *Set) Violations(r *relation.Instance) []Violation {
	ids := make([]relation.TupleID, 0, len(s.fds)*r.Len()) // every dependency's groups, one after another
	var ends []int32                                       // per group: the end of its run in ids
	cuts := make([]int, len(s.fds)+1)
	for fi, f := range s.fds {
		ids, ends = f.Partition(r).Groups(ids, ends)
		cuts[fi+1] = len(ends)
	}
	count := 0
	s.forGroups(ids, ends, cuts, func(fi int, grp []relation.TupleID) {
		count += sortGroup(r, s.fds[fi].rhs, grp)
	})
	out := make([]Violation, 0, count)
	s.forGroups(ids, ends, cuts, func(fi int, grp []relation.TupleID) {
		out = appendGroupViolations(out, r, s.fds[fi].rhs, fi, grp)
	})
	slices.SortFunc(out, func(a, b Violation) int {
		return cmp.Or(cmp.Compare(a.T1, b.T1), cmp.Compare(a.T2, b.T2), cmp.Compare(a.FD, b.FD))
	})
	return out
}

// forGroups calls visit with every group of ids: those of dependency fi
// end at ends[cuts[fi]:cuts[fi+1]].
func (s *Set) forGroups(ids []relation.TupleID, ends []int32, cuts []int, visit func(fi int, grp []relation.TupleID)) {
	lo := int32(0)
	for fi := range s.fds {
		for _, hi := range ends[cuts[fi]:cuts[fi+1]] {
			visit(fi, ids[lo:hi])
			lo = hi
		}
	}
}

// sortGroup returns the number of conflicts of a dependency with
// right-hand side rhs inside one LHS group, which is not empty: the
// pairs of its tuples that differ on rhs. A group that holds one is
// left sorted by its cells at rhs, so its RHS classes are runs.
func sortGroup(r *relation.Instance, rhs []int, grp []relation.TupleID) int {
	if !slices.ContainsFunc(grp[1:], func(id relation.TupleID) bool { return compareRHS(r, rhs, grp[0], id) != 0 }) {
		return 0
	}
	slices.SortFunc(grp, func(a, b relation.TupleID) int { return compareRHS(r, rhs, a, b) })
	n := 0
	for i := 0; i < len(grp); {
		j := runEnd(r, rhs, grp, i)
		n += (j - i) * (len(grp) - j)
		i = j
	}
	return n
}

// appendGroupViolations appends the conflicts of dependency fi inside
// one LHS group that sortGroup has seen: every pair across two of its
// runs of equal cells at rhs. A group of one run holds none.
func appendGroupViolations(out []Violation, r *relation.Instance, rhs []int, fi int, grp []relation.TupleID) []Violation {
	for i := 0; i < len(grp); {
		j := runEnd(r, rhs, grp, i)
		for _, a := range grp[i:j] {
			for _, b := range grp[j:] {
				out = append(out, Violation{T1: min(a, b), T2: max(a, b), FD: fi})
			}
		}
		i = j
	}
	return out
}

// runEnd returns the end of the run of grp's tuples from i on that
// agree with grp[i] at rhs.
func runEnd(r *relation.Instance, rhs []int, grp []relation.TupleID, i int) int {
	j := i + 1
	for j < len(grp) && compareRHS(r, rhs, grp[i], grp[j]) == 0 {
		j++
	}
	return j
}

// compareRHS orders tuples a and b of r by their cells at rhs.
func compareRHS(r *relation.Instance, rhs []int, a, b relation.TupleID) int {
	for _, i := range rhs {
		if c := r.ValueAt(a, i).Order(r.ValueAt(b, i)); c != 0 {
			return c
		}
	}
	return 0
}

// String lists the dependencies separated by "; ".
func (s *Set) String() string {
	parts := make([]string, len(s.fds))
	for i, f := range s.fds {
		parts[i] = f.String()
	}
	return strings.Join(parts, "; ")
}
