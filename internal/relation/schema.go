package relation

import (
	"fmt"
	"slices"
	"strings"
)

// Attribute is a named, typed column of a relation schema.
type Attribute struct {
	Name string
	Kind Kind
}

// NameAttr is shorthand for an attribute over the name domain D.
func NameAttr(name string) Attribute { return Attribute{Name: name, Kind: KindName} }

// IntAttr is shorthand for an attribute over the integer domain N.
func IntAttr(name string) Attribute { return Attribute{Name: name, Kind: KindInt} }

// Schema describes one relation: its name and its typed attributes.
// Schemas are immutable after construction.
type Schema struct {
	name  string
	attrs []Attribute
	index map[string]int
}

// NewSchema builds a schema. Attribute names must be non-empty and
// unique; the relation name must be a non-empty identifier.
func NewSchema(name string, attrs ...Attribute) (*Schema, error) {
	if !validIdent(name) {
		return nil, fmt.Errorf("relation: invalid relation name %q", name)
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation: schema %s needs at least one attribute", name)
	}
	s := &Schema{name: name, attrs: make([]Attribute, len(attrs)), index: make(map[string]int, len(attrs))}
	copy(s.attrs, attrs)
	for i, a := range attrs {
		if !validIdent(a.Name) {
			return nil, fmt.Errorf("relation: invalid attribute name %q in schema %s", a.Name, name)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute %q in schema %s", a.Name, name)
		}
		s.index[a.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for fixtures and
// examples.
func MustSchema(name string, attrs ...Attribute) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the relation name.
func (s *Schema) Name() string { return s.name }

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Index returns the position of the named attribute.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Indexes resolves a list of attribute names to positions, rejecting
// unknown names and duplicates.
func (s *Schema) Indexes(names []string) ([]int, error) {
	out := make([]int, 0, len(names))
	seen := make(map[int]bool, len(names))
	for _, n := range names {
		i, ok := s.index[n]
		if !ok {
			return nil, fmt.Errorf("relation: schema %s has no attribute %q", s.name, n)
		}
		if seen[i] {
			return nil, fmt.Errorf("relation: duplicate attribute %q", n)
		}
		seen[i] = true
		out = append(out, i)
	}
	return out, nil
}

// Equal reports whether two schemas have the same name and the same
// attributes in the same order.
func (s *Schema) Equal(t *Schema) bool {
	return s == t || s != nil && t != nil && s.name == t.name && slices.Equal(s.attrs, t.attrs)
}

// String renders e.g. "Mgr(Name:name, Dept:name, Salary:int)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('(')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		b.WriteByte(':')
		b.WriteString(a.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
