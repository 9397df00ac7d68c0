package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// The codec reads and writes instances as CSV with a typed header:
//
//	Name:name,Dept:name,Salary:int,Reports:int
//	Mary,R&D,40000,3
//	John,R&D,10000,2
//
// Header cells are "attr:kind" where kind is "name" or "int". Values
// in name columns are taken verbatim; values in int columns must parse
// as decimal integers. This is the on-disk format of the cmd/ tools.

// ReadCSV parses an instance for the named relation from CSV with a
// typed header row.
func ReadCSV(relName string, src io.Reader) (*Instance, error) {
	cr := csv.NewReader(src)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	attrs := make([]Attribute, len(header))
	for i, cell := range header {
		name, kindStr, ok := strings.Cut(strings.TrimSpace(cell), ":")
		if !ok {
			return nil, fmt.Errorf("relation: header cell %q must be attr:kind", cell)
		}
		kind, err := ParseKind(strings.TrimSpace(kindStr))
		if err != nil {
			return nil, fmt.Errorf("relation: header cell %q: %w", cell, err)
		}
		attrs[i] = Attribute{Name: strings.TrimSpace(name), Kind: kind}
	}
	schema, err := NewSchema(relName, attrs...)
	if err != nil {
		return nil, err
	}
	inst := NewInstance(schema)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV line %d: %w", line, err)
		}
		if len(rec) != len(attrs) {
			return nil, fmt.Errorf("relation: line %d has %d fields, want %d", line, len(rec), len(attrs))
		}
		t := make(Tuple, len(rec))
		for i, cell := range rec {
			cell = strings.TrimSpace(cell)
			if attrs[i].Kind == KindName {
				t[i] = Name(cell)
				continue
			}
			v, err := ParseValue(cell)
			if err != nil || v.Kind() != KindInt {
				return nil, fmt.Errorf("relation: line %d field %s: %q is not an integer", line, attrs[i].Name, cell)
			}
			t[i] = v
		}
		if _, _, err := inst.Insert(t); err != nil {
			return nil, fmt.Errorf("relation: line %d: %w", line, err)
		}
	}
	return inst, nil
}

// ParseKind parses "name" or "int" — the textual attribute kinds of
// the CSV header and the JSON wire schema.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "name":
		return KindName, nil
	case "int":
		return KindInt, nil
	default:
		return 0, fmt.Errorf("relation: unknown kind %q (want name or int)", s)
	}
}

// WriteCSV writes the instance in the format accepted by ReadCSV,
// tuples in deterministic value order.
func WriteCSV(dst io.Writer, inst *Instance) error {
	cw := csv.NewWriter(dst)
	s := inst.Schema()
	header := make([]string, s.Arity())
	for i := 0; i < s.Arity(); i++ {
		header[i] = s.Attr(i).Name + ":" + s.Attr(i).Kind.String()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, s.Arity())
	for _, id := range inst.SortedIDs() {
		t := inst.Tuple(id)
		for i, v := range t {
			if v.Kind() == KindName {
				rec[i] = v.AsName()
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// The JSON wire codec below is the value- and instance-level encoding
// of the prefserve protocol: schemas as {name, kind} attribute lists,
// cells in the textual constant syntax of Value.String / ParseValue
// (integers bare, names single-quoted with '' escaping), so every
// value round-trips exactly — including names that look like integers
// or contain quotes. Only live tuples are encoded: a tombstoned
// instance wires to its live content, and decoding re-densifies the
// tuple IDs.

// WireAttr is one attribute of a wire-encoded schema.
type WireAttr struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "name" or "int"
}

// WireInstance is the JSON wire form of a relation instance.
type WireInstance struct {
	Relation string     `json:"relation"`
	Attrs    []WireAttr `json:"attrs"`
	// Rows holds the live tuples in deterministic value order, one
	// cell per attribute, encoded by EncodeValue.
	Rows [][]string `json:"rows"`
}

// EncodeValue renders a value in the wire cell syntax (Value.String).
func EncodeValue(v Value) string { return v.String() }

// DecodeValue parses a wire cell against an attribute kind. Unlike
// the bare ParseValue convenience (which falls back to names for
// unquoted non-integers), the expected kind disambiguates, so decode
// is the exact inverse of EncodeValue.
func DecodeValue(kind Kind, cell string) (Value, error) {
	v, err := ParseValue(cell)
	if err != nil {
		return Value{}, err
	}
	if v.Kind() != kind {
		return Value{}, fmt.Errorf("relation: wire cell %q is a %s, want %s", cell, v.Kind(), kind)
	}
	return v, nil
}

// EncodeRow renders a tuple as wire cells, one per attribute — the row
// format of the insert request, the log record and the checkpoint.
func EncodeRow(t Tuple) []string {
	cells := make([]string, len(t))
	for i, v := range t {
		cells[i] = EncodeValue(v)
	}
	return cells
}

// DecodeRows parses a batch of wire rows against the schema: each row's
// arity must match, then every cell must be of its attribute's kind;
// an error is prefixed with "row N: ". The tuples share one backing array, each capped at its own
// end; the callers copy the values out (Instance.Insert pushes them
// into its columns), so no tuple pins the batch after the call.
func DecodeRows(s *Schema, rows [][]string) ([]Tuple, error) {
	k := s.Arity()
	tuples := make([]Tuple, len(rows))
	vals := make(Tuple, k*len(rows))
	for i, cells := range rows {
		tuples[i] = vals[i*k : (i+1)*k : (i+1)*k]
		if err := decodeRowInto(tuples[i], s, cells); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return tuples, nil
}

// decodeRowInto parses one row's cells into t, which has the schema's
// arity.
func decodeRowInto(t Tuple, s *Schema, cells []string) error {
	if len(cells) != s.Arity() {
		return fmt.Errorf("%d cells for arity-%d schema %s", len(cells), s.Arity(), s.Name())
	}
	for i, cell := range cells {
		v, err := DecodeValue(s.Attr(i).Kind, cell)
		if err != nil {
			return fmt.Errorf("attr %s: %w", s.Attr(i).Name, err)
		}
		t[i] = v
	}
	return nil
}

// WireAttrs renders the schema's attributes for the wire.
func (s *Schema) WireAttrs() []WireAttr {
	out := make([]WireAttr, s.Arity())
	for i := range out {
		out[i] = WireAttr{Name: s.Attr(i).Name, Kind: s.Attr(i).Kind.String()}
	}
	return out
}

// WireSchema builds the schema a wire attribute list describes; an
// unknown kind, like a name NewSchema rejects, is an error.
func WireSchema(name string, attrs []WireAttr) (*Schema, error) {
	out := make([]Attribute, len(attrs))
	for i, a := range attrs {
		kind, err := ParseKind(a.Kind)
		if err != nil {
			return nil, fmt.Errorf("relation: wire attr %q: %w", a.Name, err)
		}
		out[i] = Attribute{Name: a.Name, Kind: kind}
	}
	return NewSchema(name, out...)
}

// EncodeWire encodes the instance's schema and live tuples for the
// wire. The inverse is DecodeWire.
func EncodeWire(inst *Instance) WireInstance {
	w := WireInstance{
		Relation: inst.Schema().Name(),
		Attrs:    inst.Schema().WireAttrs(),
		Rows:     make([][]string, 0, inst.Len()),
	}
	for _, id := range inst.SortedIDs() {
		w.Rows = append(w.Rows, EncodeRow(inst.Tuple(id)))
	}
	return w
}

// DecodeWire rebuilds an instance from its wire form. Tuple IDs are
// assigned densely in row order; the live tuple set and schema equal
// the encoded instance's.
func DecodeWire(w WireInstance) (*Instance, error) {
	schema, err := WireSchema(w.Relation, w.Attrs)
	if err != nil {
		return nil, err
	}
	tuples, err := DecodeRows(schema, w.Rows)
	if err != nil {
		return nil, fmt.Errorf("relation: wire %w", err)
	}
	inst := NewInstance(schema)
	for ri, t := range tuples {
		if _, _, err := inst.Insert(t); err != nil {
			return nil, fmt.Errorf("relation: wire row %d: %w", ri, err)
		}
	}
	return inst, nil
}
