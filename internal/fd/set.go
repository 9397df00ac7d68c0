package fd

import (
	"fmt"
	"sort"
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

// Conflicts reports whether two tuples conflict with respect to some
// dependency in the set, and returns the index of the first witness.
func (s *Set) Conflicts(t, u relation.Tuple) (int, bool) {
	for i, f := range s.fds {
		if f.Conflicts(t, u) {
			return i, true
		}
	}
	return -1, false
}

// Violation is a pair of conflicting tuples and the dependency they
// violate.
type Violation struct {
	T1, T2 relation.TupleID
	FD     int // index into the set
}

// Violations lists all conflicting tuple pairs (T1 < T2) in the
// instance, one entry per violated dependency. Pairs are found by
// hashing on the LHS projection, so the cost is proportional to the
// number of conflicts rather than all tuple pairs.
func (s *Set) Violations(r *relation.Instance) []Violation {
	var out []Violation
	var buf []byte
	for fi, f := range s.fds {
		groups := make(map[string][]relation.TupleID)
		r.RangeIDs(func(id relation.TupleID) bool {
			buf = r.AppendProjectionKey(buf[:0], id, f.lhs)
			groups[string(buf)] = append(groups[string(buf)], id)
			return true
		})
		for _, ids := range groups {
			if len(ids) < 2 {
				continue
			}
			// Within an LHS group, tuples conflict iff they differ on
			// the RHS projection; partition by RHS value.
			byRHS := make(map[string][]relation.TupleID)
			var order []string
			for _, id := range ids {
				buf = r.AppendProjectionKey(buf[:0], id, f.rhs)
				k := string(buf)
				if _, seen := byRHS[k]; !seen {
					order = append(order, k)
				}
				byRHS[k] = append(byRHS[k], id)
			}
			for i := 0; i < len(order); i++ {
				for j := i + 1; j < len(order); j++ {
					for _, a := range byRHS[order[i]] {
						for _, b := range byRHS[order[j]] {
							t1, t2 := a, b
							if t1 > t2 {
								t1, t2 = t2, t1
							}
							out = append(out, Violation{T1: t1, T2: t2, FD: fi})
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.T1 != b.T1 {
			return a.T1 < b.T1
		}
		if a.T2 != b.T2 {
			return a.T2 < b.T2
		}
		return a.FD < b.FD
	})
	return out
}

// String lists the dependencies separated by "; ".
func (s *Set) String() string {
	parts := make([]string, len(s.fds))
	for i, f := range s.fds {
		parts[i] = f.String()
	}
	return strings.Join(parts, "; ")
}
