package relation

// Columnar storage.
//
// An Instance stores its tuples as one typed column per attribute:
// a dense []int64 for KindInt attributes, a dense []string for
// KindName attributes, both indexed by TupleID. The schema fixes each
// attribute's kind, so a column never mixes payloads and carries no
// per-cell tag — half the memory of the previous []Tuple row storage
// and the natural layout for the vectorized executor, which touches
// one or two attributes of many tuples rather than all attributes of
// one.
//
// Columns are append-only and shared along the version chain exactly
// like the row arena they replace: Fork copies the slice headers,
// the child appends, and every published version reads only ids below
// its own NumIDs(). Tuple values for an existing id are immutable.

// column is the internal storage of one attribute.
type column struct {
	kind Kind
	ints []int64  // KindInt payloads, dense by TupleID
	strs []string // KindName payloads, dense by TupleID
}

func newColumns(s *Schema) []column {
	cols := make([]column, s.Arity())
	for i := range cols {
		cols[i].kind = s.Attr(i).Kind
	}
	return cols
}

// push appends v, which the caller has already type-checked against
// the column's kind.
func (c *column) push(v Value) {
	if c.kind == KindInt {
		c.ints = append(c.ints, v.i)
	} else {
		c.strs = append(c.strs, v.s)
	}
}

// value rebuilds the Value at id. Values are two words plus a kind
// tag, so materialization is allocation-free.
func (c *column) value(id TupleID) Value {
	if c.kind == KindInt {
		return Value{kind: KindInt, i: c.ints[id]}
	}
	return Value{kind: KindName, s: c.strs[id]}
}

// Col is a read-only view of one attribute column of one instance
// version, bounded to the version's ID universe [0, NumIDs()).
// It is the storage currency of the vectorized executor: batch
// operators read cells by tuple ID without materializing tuples.
// Liveness (tombstones) and subset visibility are the caller's
// concern — a Col sees every id of the version, dead or alive.
type Col struct {
	kind Kind
	ints []int64
	strs []string
}

// Col returns the column view of attribute attr.
func (r *Instance) Col(attr int) Col {
	c := &r.cols[attr]
	if c.kind == KindInt {
		return Col{kind: KindInt, ints: c.ints[:r.n]}
	}
	return Col{kind: KindName, strs: c.strs[:r.n]}
}

// Kind reports the column's domain.
func (c Col) Kind() Kind { return c.kind }

// Value materializes the cell at id.
func (c Col) Value(id TupleID) Value {
	if c.kind == KindInt {
		return Value{kind: KindInt, i: c.ints[id]}
	}
	return Value{kind: KindName, s: c.strs[id]}
}

// Int returns the integer cell at id; the column must be KindInt.
func (c Col) Int(id TupleID) int64 { return c.ints[id] }

// Equals reports whether the cell at id equals v.
func (c Col) Equals(id TupleID, v Value) bool {
	if c.kind != v.kind {
		return false
	}
	if c.kind == KindInt {
		return c.ints[id] == v.i
	}
	return c.strs[id] == v.s
}

// EqualsCell reports whether the cell at id equals d's cell at id2.
func (c Col) EqualsCell(id TupleID, d Col, id2 TupleID) bool {
	if c.kind != d.kind {
		return false
	}
	if c.kind == KindInt {
		return c.ints[id] == d.ints[id2]
	}
	return c.strs[id] == d.strs[id2]
}

// AppendKey appends the canonical key encoding of the cell at id —
// the building block of vectorized join keys, compatible with
// Value.AppendKey.
func (c Col) AppendKey(b []byte, id TupleID) []byte {
	return c.Value(id).appendKey(b)
}

// ValueAt returns the value of attribute attr of tuple id without
// materializing the tuple. It is the point-access companion of Col
// for code that touches a handful of cells (conflict partner checks,
// FD projections) rather than whole columns.
func (r *Instance) ValueAt(id TupleID, attr int) Value {
	return r.cols[attr].value(id)
}

// compareIDs orders two tuples of r by value (the Tuple.Order
// ordering), reading columns directly.
func (r *Instance) compareIDs(a, b TupleID) int {
	for i := range r.cols {
		if c := r.cols[i].value(a).Order(r.cols[i].value(b)); c != 0 {
			return c
		}
	}
	return 0
}
