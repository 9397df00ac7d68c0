package relation

import (
	"encoding/json"
	"fmt"
	"math/rand"
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
			if tup, err := DecodeRow(got.Schema(), row); err != nil || !got.Contains(tup) {
				t.Fatalf("iter %d: DecodeRow(%q) = %v, %v; want a tuple of the instance", iter, row, tup, err)
			}
			if _, err := DecodeRow(got.Schema(), row[1:]); err == nil {
				t.Fatalf("iter %d: DecodeRow accepted %d cells for arity %d", iter, len(row)-1, len(row))
			}
			if _, err := DecodeRow(got.Schema(), append(row, row[0])); err == nil {
				t.Fatalf("iter %d: DecodeRow accepted %d cells for arity %d", iter, len(row)+1, len(row))
			}
			flipped := append([]string(nil), row...)
			at := rng.Intn(len(row))
			if got.Schema().Attr(at).Kind == KindName {
				flipped[at] = EncodeValue(Int(7))
			} else {
				flipped[at] = EncodeValue(Name(row[at])) // the same digits, quoted
			}
			if _, err := DecodeRow(got.Schema(), flipped); err == nil {
				t.Fatalf("iter %d: DecodeRow accepted cell %q for a %s attribute", iter, flipped[at], got.Schema().Attr(at).Kind)
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
