package client_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"prefcqa/client"
)

// Method-less copies of the five codec shapes, with the same names so
// that encoding/json's error texts (which name the struct) match: the
// reference the codec is held to is encoding/json on these.
type (
	QueryRequest      client.QueryRequest
	CountRequest      client.CountRequest
	QueryResponse     client.QueryResponse
	QueryOpenResponse client.QueryOpenResponse
	CountResponse     client.CountResponse
)

// backslashU spells a JSON \u escape without writing one in this file.
const backslashU = `\` + "u"

// wireSeeds are the bodies the serving benchmark's point_read and
// analytic_read workloads send and receive (the Go client's and the
// traced replay's encodings), plus the edges the fast path declines.
var wireSeeds = []string{
	`{"db":"bench","family":"global","query":"R(17, 0)","timeout_ms":5000}` + "\n",
	`{"db":"bench","family":"rep","query":"EXISTS v . R(3, v) AND v ` + backslashU + `003c 1","timeout_ms":5000}`,
	`{"db":"bench","family":"global","query":"R(4, x)","min_version":12,"timeout_ms":5000}`,
	`{"db":"bench","family":"global","query":"C(x, 0) AND x >= 40 AND x ` + backslashU + `003c 90","timeout_ms":5000}`,
	`{"db":"bench","family":"global","query":"EXISTS a, b, c . TR(a, b) AND TS(b, c) AND TT(c, a)","timeout_ms":5000}`,
	`{"db":"bench","family":"global","relation":"C","timeout_ms":5000}`,
	`{"answer":"true","version":3,"versions":{"R":3}}` + "\n",
	`{"answer":"undetermined","version":0}`,
	`{"bindings":[{"x":"0"}],"version":3}` + "\n",
	`{"bindings":[{"x":"5"},{"x":"6"},{"x":"'it''s'"}],"version":2}`,
	`{"bindings":[],"version":1}`,
	`{"count":134217728,"version":9}` + "\n",
	`{"DB":"bench","family":"global","query":"R(1, 0)"}`,
	`{"db":"bench","bogus":"x","query":"R(1, 0)"}`,
	`{"db":"bench","query":"R(1, 0)","timeout_ms":1.5}`,
	`{"db":"bench","query":"R(1, 0)"} trailing`,
	`{"db":null,"query":"R(1, 0)"}`,
	`null`,
	``,
	`{"answer":"true","version":1,"extra":[1,2]}`,
	`{"count":-9223372036854775808,"version":18446744073709551615}`,
	`{"count":9223372036854775808,"version":18446744073709551616}`,
	`{"db":"` + backslashU + `d834` + backslashU + `dd1e x","query":"\t"}`,
	`{"db":"a\"b\\c\/d\b\f\n\r\t` + backslashU + `00e9` + backslashU + `2028"}`,
	"{\"db\":\"\xff\xfe\"}",
	`{"bindings":[{"x":"1"}],"bindings":[{"y":"2"}],"version":1}`,
	`{"answer":"true","versions":{"R":1},"versions":{"S":2}}`,
	`{"bindings":[null],"version":1}`,
}

// FuzzWireCodec holds the read round trip's codec to encoding/json:
// DecodeJSON on arbitrary bytes against json.Decoder (strict for the
// requests, tolerant for the replies), and AppendJSON on arbitrary
// field values against json.Encoder, byte for byte.
func FuzzWireCodec(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s), "bench", "global", "EXISTS v . R(3, v) AND v < 1", uint64(7), int64(5000))
	}
	f.Add([]byte(`{}`), "<a&b>\"q\"\\", "\x00\x1f\x7f\b\f\n\r\t", "\xe2\x80\xa8\xe2\x80\xa9 é 日本 \xff\xc3", uint64(math.MaxUint64), int64(math.MinInt64))
	f.Add([]byte(`{}`), "", "x", "", uint64(0), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, body []byte, a, b, c string, u uint64, i int64) {
		checkDecodeAll(t, body)
		values := []any{
			client.QueryRequest{DB: a, Family: b, Query: c, ReadOptions: client.ReadOptions{MinVersion: u, TimeoutMS: i}},
			client.CountRequest{DB: a, Family: b, Relation: c, ReadOptions: client.ReadOptions{TimeoutMS: i}},
			client.QueryResponse{Answer: a, Version: u},
			client.QueryResponse{Answer: a, Version: u, Versions: map[string]uint64{a: u, b: uint64(i), c: 0}},
			client.QueryOpenResponse{Version: u},
			client.QueryOpenResponse{Bindings: []map[string]string{}},
			client.QueryOpenResponse{Bindings: []map[string]string{{a: b, c: a}, nil, {}, {b: c}}, Version: u},
			client.CountResponse{Count: i, Version: u},
		}
		for _, v := range values {
			got, err := client.AppendJSON(nil, v)
			if err != nil {
				t.Fatalf("AppendJSON(%#v): %v", v, err)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(v); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("AppendJSON(%#v)\n got %q\nwant %q", v, got, want.Bytes())
			}
			checkDecodeAll(t, got)
		}
	})
}

// checkDecodeAll decodes b as each of the five shapes.
func checkDecodeAll(t *testing.T, b []byte) {
	t.Helper()
	checkDecode[client.QueryRequest, QueryRequest](t, b, true)
	checkDecode[client.CountRequest, CountRequest](t, b, true)
	checkDecode[client.QueryResponse, QueryResponse](t, b, false)
	checkDecode[client.QueryOpenResponse, QueryOpenResponse](t, b, false)
	checkDecode[client.CountResponse, CountResponse](t, b, false)
}

// checkDecode requires DecodeJSON into a T to give what json.Decoder
// gives into the method-less copy R: the same error text, or the same
// value.
func checkDecode[T, R any](t *testing.T, b []byte, strict bool) {
	t.Helper()
	var want R
	dec := json.NewDecoder(bytes.NewReader(b))
	if strict {
		dec.DisallowUnknownFields()
	}
	werr := dec.Decode(&want)
	var got T
	gerr := client.DecodeJSON(b, &got)
	// A type error names the copy's package where the codec's names client.
	switch {
	case (werr == nil) != (gerr == nil) || werr != nil && strings.ReplaceAll(werr.Error(), "client_test.", "client.") != gerr.Error():
		t.Fatalf("DecodeJSON(%q) into %T: error %v, encoding/json: %v", b, got, gerr, werr)
	case werr == nil && !reflect.DeepEqual(got, reflect.ValueOf(want).Convert(reflect.TypeOf(got)).Interface()):
		t.Fatalf("DecodeJSON(%q) into %T: %#v, encoding/json: %#v", b, got, got, want)
	}
}

// TestDecodeJSONKeepsAbsentMembers pins the part of encoding/json's
// contract a decode into a fresh value cannot show: members the body
// does not name keep what the destination held.
func TestDecodeJSONKeepsAbsentMembers(t *testing.T) {
	got := client.QueryRequest{DB: "kept", ReadOptions: client.ReadOptions{TimeoutMS: 9}}
	want := QueryRequest(got)
	body := []byte(`{"family":"rep","min_version":4}`)
	if err := client.DecodeJSON(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if got != client.QueryRequest(want) {
		t.Fatalf("DecodeJSON into a filled value: %+v, encoding/json: %+v", got, want)
	}
	// A reply map the destination already holds is merged into by
	// encoding/json; the fast path declines it and gives the same.
	resp := client.QueryResponse{Versions: map[string]uint64{"S": 1}}
	if err := client.DecodeJSON([]byte(`{"answer":"true","version":2,"versions":{"R":2}}`), &resp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Versions, map[string]uint64{"S": 1, "R": 2}) {
		t.Fatalf("versions = %v, want the merge of S:1 and R:2", resp.Versions)
	}
}

// TestDecodeJSONTakesCanonicalBodies: the bodies the Go client and
// prefserve exchange for a point read are read by the fast path, not
// handed to encoding/json — which the fuzz target alone cannot tell,
// since the fallback agrees with the reference by construction. The
// fast path allocates the value and its strings and maps only, under
// half of what json.Decoder allocates for the same body.
func TestDecodeJSONTakesCanonicalBodies(t *testing.T) {
	for _, c := range []struct {
		body string
		v    func() any
	}{
		{wireSeeds[0], func() any { return new(client.QueryRequest) }},
		{wireSeeds[1], func() any { return new(client.QueryRequest) }},
		{wireSeeds[5], func() any { return new(client.CountRequest) }},
		{wireSeeds[6], func() any { return new(client.QueryResponse) }},
		{wireSeeds[8], func() any { return new(client.QueryOpenResponse) }},
		{wireSeeds[11], func() any { return new(client.CountResponse) }},
	} {
		b := []byte(c.body)
		fast := testing.AllocsPerRun(50, func() {
			if err := client.DecodeJSON(b, c.v()); err != nil {
				t.Fatal(err)
			}
		})
		ref := testing.AllocsPerRun(50, func() { json.NewDecoder(bytes.NewReader(b)).Decode(c.v()) }) //nolint:errcheck // counted only
		if fast > ref/2 {
			t.Errorf("DecodeJSON(%q) allocates %v objects, json.Decoder %v: the fast path declined it", b, fast, ref)
		}
	}
}
