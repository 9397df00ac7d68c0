package relation

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// nastyNames are name constants chosen to break naive wire encodings:
// integers-as-text, quotes, commas, whitespace, empty, unicode.
var nastyNames = []string{
	"", " ", "x", "42", "-7", "'", "''", "a'b", "\"q\"", "a,b",
	"line\nbreak", "tab\tcell", "héllo", "名前", "null", "true",
	"0x10", " padded ", "trailing ", "{\"json\":1}",
}

// randomWireInstance builds a random instance over a random schema,
// optionally deleting a random subset of tuples (tombstones).
func randomWireInstance(rng *rand.Rand, tombstone bool) *Instance {
	arity := 1 + rng.Intn(4)
	attrs := make([]Attribute, arity)
	for i := range attrs {
		if rng.Intn(2) == 0 {
			attrs[i] = NameAttr(fmt.Sprintf("N%d", i))
		} else {
			attrs[i] = IntAttr(fmt.Sprintf("I%d", i))
		}
	}
	inst := NewInstance(MustSchema(fmt.Sprintf("R%d", rng.Intn(100)), attrs...))
	n := rng.Intn(30) // may be zero: empty relations must survive too
	for j := 0; j < n; j++ {
		t := make(Tuple, arity)
		for i := range t {
			if attrs[i].Kind == KindName {
				t[i] = Name(nastyNames[rng.Intn(len(nastyNames))])
			} else {
				t[i] = Int(rng.Int63n(2001) - 1000)
			}
		}
		inst.Insert(t) //nolint:errcheck // typed tuples cannot fail
	}
	if tombstone {
		for id := 0; id < inst.NumIDs(); id++ {
			if rng.Intn(3) == 0 {
				inst.Delete(id)
			}
		}
	}
	return inst
}

// sameLiveContent reports whether two instances have equal schemas and
// identical live tuple sets (IDs may differ: decode re-densifies).
func sameLiveContent(a, b *Instance) bool {
	if !a.Schema().Equal(b.Schema()) || a.Len() != b.Len() {
		return false
	}
	ok := true
	a.Range(func(_ TupleID, t Tuple) bool {
		if !b.Contains(t) {
			ok = false
		}
		return ok
	})
	return ok
}

// TestWireRoundTripProperty: decode(encode(inst)) preserves schema and
// live content for random instances covering every value kind, empty
// relations, and tombstoned instances — and survives an actual JSON
// marshal/unmarshal in the middle, like the server wire path.
func TestWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		inst := randomWireInstance(rng, iter%2 == 1)
		w := EncodeWire(inst)
		blob, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("iter %d: marshal: %v", iter, err)
		}
		var w2 WireInstance
		if err := json.Unmarshal(blob, &w2); err != nil {
			t.Fatalf("iter %d: unmarshal: %v", iter, err)
		}
		got, err := DecodeWire(w2)
		if err != nil {
			t.Fatalf("iter %d: decode: %v\nwire: %s", iter, err, blob)
		}
		if !sameLiveContent(inst, got) {
			t.Fatalf("iter %d: round trip changed content\n in: %s\nout: %s", iter, inst, got)
		}
		// Encoding is deterministic: re-encoding the decoded instance
		// reproduces the wire form bit-for-bit.
		blob2, err := json.Marshal(EncodeWire(got))
		if err != nil {
			t.Fatalf("iter %d: re-marshal: %v", iter, err)
		}
		if string(blob) != string(blob2) {
			t.Fatalf("iter %d: re-encoding differs\n 1st: %s\n 2nd: %s", iter, blob, blob2)
		}
		// A row decodes against its own schema only: one cell fewer, one
		// more, or one of the other kind is an error, not a guess.
		for _, row := range w2.Rows {
			if tup, err := decodeRow(got.Schema(), row); err != nil || !got.Contains(tup) {
				t.Fatalf("iter %d: decodeRow(%q) = %v, %v; want a tuple of the instance", iter, row, tup, err)
			}
			if _, err := decodeRow(got.Schema(), row[1:]); err == nil {
				t.Fatalf("iter %d: decodeRow accepted %d cells for arity %d", iter, len(row)-1, len(row))
			}
			if _, err := decodeRow(got.Schema(), append(row, row[0])); err == nil {
				t.Fatalf("iter %d: decodeRow accepted %d cells for arity %d", iter, len(row)+1, len(row))
			}
			flipped := append([]string(nil), row...)
			at := rng.Intn(len(row))
			if got.Schema().Attr(at).Kind == KindName {
				flipped[at] = EncodeValue(Int(7))
			} else {
				flipped[at] = EncodeValue(Name(row[at])) // the same digits, quoted
			}
			if _, err := decodeRow(got.Schema(), flipped); err == nil {
				t.Fatalf("iter %d: decodeRow accepted cell %q for a %s attribute", iter, flipped[at], got.Schema().Attr(at).Kind)
			}
		}
	}
}

// TestWireValueKinds: every value kind round-trips exactly, including
// names that masquerade as integers.
func TestWireValueKinds(t *testing.T) {
	cases := []Value{
		Int(0), Int(-1), Int(42), Int(1<<62 + 3),
		Name(""), Name("42"), Name("-7"), Name("it's"), Name("a''b"),
		Name("plain"), Name("with space"), Name("名"),
	}
	for _, v := range cases {
		cell := EncodeValue(v)
		got, err := DecodeValue(v.Kind(), cell)
		if err != nil {
			t.Fatalf("%v (cell %q): %v", v, cell, err)
		}
		if !got.Equal(v) {
			t.Fatalf("round trip %v -> %q -> %v", v, cell, got)
		}
	}
	// Kind mismatches are rejected, not coerced.
	if _, err := DecodeValue(KindInt, "'x'"); err == nil {
		t.Fatal("DecodeValue accepted a name cell for an int attribute")
	}
	if _, err := DecodeValue(KindName, "42"); err == nil {
		t.Fatal("DecodeValue accepted an int cell for a name attribute")
	}
}

// TestWireDecodeErrors: malformed wire forms fail loudly.
func TestWireDecodeErrors(t *testing.T) {
	good := EncodeWire(NewInstance(MustSchema("R", NameAttr("A"), IntAttr("B"))))
	bad := good
	bad.Attrs = []WireAttr{{Name: "A", Kind: "float"}}
	if _, err := DecodeWire(bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
	bad = good
	bad.Rows = [][]string{{"'x'"}}
	if _, err := DecodeWire(bad); err == nil {
		t.Fatal("short row accepted")
	}
	bad = good
	bad.Rows = [][]string{{"'x'", "notanint"}}
	if _, err := DecodeWire(bad); err == nil {
		t.Fatal("kind-mismatched cell accepted")
	}
}

// decodeRow decodes one row as DecodeRows decodes each row of a batch.
func decodeRow(s *Schema, cells []string) (Tuple, error) {
	t := make(Tuple, s.Arity())
	return t, decodeRowInto(t, s, cells)
}

// FuzzDecodeRow drives the decoder every insert runs (decodeRowInto,
// the per-row step of DecodeRows, and DecodeWire around it) with
// arbitrary cells against a schema drawn from shape: arity 1-4 from its
// low bits, each attribute's kind from the next ones. cells holds the
// row's cells separated by \x1f. The decoder must never panic, must
// reject a row of the wrong arity or with a cell of the wrong kind, and
// whatever it accepts must come back from EncodeRow unchanged — and
// DecodeWire must agree with it.
func FuzzDecodeRow(f *testing.F) {
	for _, name := range nastyNames {
		f.Add(uint8(1<<2), EncodeValue(Name(name))) // one name column
		f.Add(uint8(0), name)                       // the same text, unquoted, against an int column
	}
	f.Add(uint8(1), "42\x1f-7")
	f.Add(uint8(1|1<<3), "42\x1f'x'")
	f.Add(uint8(3|1<<2|1<<4), "'a''b'\x1f 0 \x1f'名前'\x1f9223372036854775807")
	f.Add(uint8(1), "1")
	f.Add(uint8(0), "99999999999999999999")
	f.Fuzz(func(t *testing.T, shape uint8, cells string) {
		attrs := make([]Attribute, 1+int(shape%4))
		for i := range attrs {
			if shape>>(2+i)&1 == 1 {
				attrs[i] = NameAttr(fmt.Sprintf("N%d", i))
			} else {
				attrs[i] = IntAttr(fmt.Sprintf("I%d", i))
			}
		}
		s := MustSchema("R", attrs...)
		row := strings.Split(cells, "\x1f")
		tup, err := decodeRow(s, row)
		inst, werr := DecodeWire(WireInstance{Relation: "R", Attrs: s.WireAttrs(), Rows: [][]string{row, row}})
		if (err == nil) != (werr == nil) {
			t.Fatalf("decodeRow error %v, DecodeWire error %v", err, werr)
		}
		if err != nil {
			return
		}
		if len(row) != s.Arity() {
			t.Fatalf("accepted %d cells for arity %d", len(row), s.Arity())
		}
		for i, v := range tup {
			if v.Kind() != s.Attr(i).Kind {
				t.Fatalf("cell %d %q decoded to a %s, attribute is %s", i, row[i], v.Kind(), s.Attr(i).Kind)
			}
		}
		again, err := decodeRow(s, EncodeRow(tup))
		if err != nil || !again.Equal(tup) {
			t.Fatalf("%q decoded to %v, re-encoded as %q, which decodes to %v, %v", row, tup, EncodeRow(tup), again, err)
		}
		// The duplicate row collapses: one live tuple, the decoded one.
		if inst.Len() != 1 || !inst.Tuple(0).Equal(tup) {
			t.Fatalf("DecodeWire of the row twice holds %d tuples, first %v; want %v once", inst.Len(), inst.Tuple(0), tup)
		}
	})
}
