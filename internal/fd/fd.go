// Package fd implements functional dependencies over a relation
// schema: representation, parsing and violation detection (the
// conflicts of §2.1).
package fd

import (
	"fmt"
	"slices"
	"strings"

	"prefcqa/internal/relation"
)

// FD is a functional dependency X → Y with X, Y given as attribute
// positions of a fixed schema. Both sides are kept sorted and
// duplicate-free; Y is stored with X removed (trivial parts carry no
// conflict information).
type FD struct {
	schema *relation.Schema
	lhs    []int
	rhs    []int
}

// New builds an FD from attribute positions. The right-hand side is
// normalized by removing attributes that also appear on the left;
// a dependency whose normalized RHS is empty is rejected as trivial.
func New(schema *relation.Schema, lhs, rhs []int) (FD, error) {
	if schema == nil {
		return FD{}, fmt.Errorf("fd: nil schema")
	}
	check := func(side string, idx []int) error {
		for _, i := range idx {
			if i < 0 || i >= schema.Arity() {
				return fmt.Errorf("fd: %s attribute index %d out of range for %s", side, i, schema)
			}
		}
		return nil
	}
	if err := check("lhs", lhs); err != nil {
		return FD{}, err
	}
	if err := check("rhs", rhs); err != nil {
		return FD{}, err
	}
	l := normalize(lhs)
	r := slices.DeleteFunc(normalize(rhs), func(i int) bool { return slices.Contains(l, i) })
	if len(r) == 0 {
		return FD{}, fmt.Errorf("fd: trivial dependency (RHS ⊆ LHS)")
	}
	return FD{schema: schema, lhs: l, rhs: r}, nil
}

// NewByName builds an FD from attribute names.
func NewByName(schema *relation.Schema, lhs, rhs []string) (FD, error) {
	l, err := schema.Indexes(lhs)
	if err != nil {
		return FD{}, err
	}
	r, err := schema.Indexes(rhs)
	if err != nil {
		return FD{}, err
	}
	return New(schema, l, r)
}

func normalize(idx []int) []int {
	out := slices.Clone(idx)
	slices.Sort(out)
	return slices.Compact(out)
}

// Parse reads "A, B -> C D" (commas and/or spaces separate attribute
// names; "→" is accepted for "->").
func Parse(schema *relation.Schema, s string) (FD, error) {
	norm := strings.ReplaceAll(s, "→", "->")
	left, right, ok := strings.Cut(norm, "->")
	if !ok {
		return FD{}, fmt.Errorf("fd: %q: missing '->'", s)
	}
	lhs := splitNames(left)
	rhs := splitNames(right)
	if len(lhs) == 0 {
		return FD{}, fmt.Errorf("fd: %q: empty left-hand side", s)
	}
	if len(rhs) == 0 {
		return FD{}, fmt.Errorf("fd: %q: empty right-hand side", s)
	}
	return NewByName(schema, lhs, rhs)
}

func splitNames(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	})
}

// Partition returns the partition of r on f's left-hand side: the
// groups two tuples must share to conflict under f.
func (f FD) Partition(r *relation.Instance) relation.Partition { return r.Partition(f.lhs) }

// ConflictsAt is Conflicts over two tuples of r addressed by ID,
// comparing column cells directly without materializing either tuple.
func (f FD) ConflictsAt(r *relation.Instance, a, b relation.TupleID) bool {
	for _, i := range f.lhs {
		if !r.ValueAt(a, i).Equal(r.ValueAt(b, i)) {
			return false
		}
	}
	for _, i := range f.rhs {
		if !r.ValueAt(a, i).Equal(r.ValueAt(b, i)) {
			return true
		}
	}
	return false
}

// Equal reports whether two FDs have the same sides over the same
// schema.
func (f FD) Equal(g FD) bool {
	return f.schema.Equal(g.schema) && slices.Equal(f.lhs, g.lhs) && slices.Equal(f.rhs, g.rhs)
}

// String renders "A,B -> C,D" using attribute names.
func (f FD) String() string {
	name := func(idx []int) string {
		parts := make([]string, len(idx))
		for i, j := range idx {
			parts[i] = f.schema.Attr(j).Name
		}
		return strings.Join(parts, ",")
	}
	return name(f.lhs) + " -> " + name(f.rhs)
}
