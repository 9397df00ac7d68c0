package client_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"prefcqa"
	"prefcqa/client"
	"prefcqa/internal/relation"
)

// Method-less copies of the eleven codec shapes, with the same names
// so that encoding/json's error texts (which name the struct) match:
// the reference the codec is held to is encoding/json on these.
type (
	QueryRequest      client.QueryRequest
	CountRequest      client.CountRequest
	QueryResponse     client.QueryResponse
	QueryOpenResponse client.QueryOpenResponse
	CountResponse     client.CountResponse
	InsertRequest     client.InsertRequest
	DeleteRequest     client.DeleteRequest
	PreferRequest     client.PreferRequest
	InsertResponse    client.InsertResponse
	DeleteResponse    client.DeleteResponse
	VersionResponse   client.VersionResponse
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
	// The write shapes: what the workloads' bulk load, update batches and
	// replies carry (bulkSeeds adds a whole bulk batch of each), then the
	// edges the fast path declines.
	`{"db":"bench","relation":"R","rows":[["17","0"],["17","1"]]}` + "\n",
	`{"db":"bench","relation":"R","ids":[34]}` + "\n",
	`{"db":"bench","relation":"R","pairs":[[34,35],[0,1]]}` + "\n",
	`{"ids":[200000,200001],"version":32}` + "\n",
	`{"deleted":1,"version":33}` + "\n",
	`{"version":31}` + "\n",
	`{"db":"ci","relation":"Mgr","rows":[["'Mary'","'R&D'","40"],["'it''s'","` + backslashU + `003c","-7"],[]]}`,
	`{"db":"bench","relation":"R","rows":null,"ids":null,"pairs":null}`,
	`{"db":"bench","relation":"R","rows":[null,["1"]]}`,
	`{"db":"bench","relation":"R","rows":[],"rows":[["2","3"]]}`,
	`{"Rows":[["1","2"]],"IDS":[1],"Pairs":[[1,2]]}`,
	`{"db":"bench","relation":"R","pairs":[[1,2,3],[5,6]]}`,
	`{"db":"bench","relation":"R","pairs":[[4],[],[5,6]]}`,
	`{"db":"bench","relation":"R","pairs":[[1,2.5]],"ids":[1e3]}`,
	`{"db":"bench","relation":"R","ids":[9223372036854775807,-9223372036854775808,9223372036854775808]}`,
	`{"ids":[],"deleted":-1,"version":0,"later":{"field":true}}`,
	`{"ids":[1,2],"ids":[3]}`,
	`{"version":1,"version":2}`,
}

// bulkSeeds are one batch of each bulk body the serving benchmark
// sends (n rows, n preference pairs; it sends 10 000 of each) and the
// reply to the insert.
func bulkSeeds(n int) [][]byte {
	rows := make([][]string, n)
	pairs := make([][2]int, n)
	ids := make([]int, n)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i / 2), strconv.Itoa(i % 2)}
		pairs[i] = [2]int{2 * i, 2*i + 1}
		ids[i] = i
	}
	var out [][]byte
	for _, v := range []any{
		client.InsertRequest{DB: "bench", Relation: "R", Rows: rows},
		client.PreferRequest{DB: "bench", Relation: "R", Pairs: pairs},
		client.InsertResponse{IDs: ids, Version: 3},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		out = append(out, append(b, '\n'))
	}
	return out
}

// FuzzWireCodec holds the read round trip's codec to encoding/json:
// DecodeJSON on arbitrary bytes against json.Decoder (strict for the
// requests, tolerant for the replies), and AppendJSON on arbitrary
// field values against json.Encoder, byte for byte.
func FuzzWireCodec(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s), "bench", "global", "EXISTS v . R(3, v) AND v < 1", uint64(7), int64(5000))
	}
	// A whole batch would slow the target forty-fold (every execution
	// decodes its input as all eleven shapes, twice); TestBulkBodies
	// holds the codec to encoding/json on it.
	for _, b := range bulkSeeds(100) {
		f.Add(b, "bench", "R", "17", uint64(200000), int64(1))
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
			client.InsertRequest{DB: a, Relation: b},
			client.InsertRequest{DB: a, Relation: b, Rows: [][]string{{c, a}, nil, {}, {b}}},
			client.DeleteRequest{DB: a, Relation: b},
			client.DeleteRequest{DB: a, Relation: b, IDs: []int{int(i), int(u), 0}},
			client.PreferRequest{DB: a, Relation: b, Pairs: [][2]int{}},
			client.PreferRequest{DB: a, Relation: b, Pairs: [][2]int{{int(i), int(u)}, {}}},
			client.InsertResponse{Version: u},
			client.InsertResponse{IDs: []int{}, Version: u},
			client.InsertResponse{IDs: []int{int(i), int(u)}},
			client.DeleteResponse{Deleted: int(i), Version: u},
			client.VersionResponse{Version: u},
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
		// Client.Insert writes its rows straight from the tuples: the
		// bytes of the InsertRequest of their wire cells.
		for _, rows := range [][]prefcqa.Tuple{nil, {}, {nil, {}}, {{prefcqa.Name(a), prefcqa.Int(i)}, {prefcqa.Int(int64(u)), prefcqa.Name(c), prefcqa.Name(b)}}} {
			got, err := client.AppendInsert(nil, a, b, rows)
			if err != nil {
				t.Fatal(err)
			}
			want := client.InsertRequest{DB: a, Relation: b, Rows: [][]string{}}
			for _, row := range rows {
				want.Rows = append(want.Rows, append([]string{}, relation.EncodeRow(row)...))
			}
			if want, _ := client.AppendJSON(nil, want); !bytes.Equal(got, want) {
				t.Fatalf("insert of %v\n got %q\nwant %q", rows, got, want)
			}
		}
	})
}

// TestBulkBodies holds DecodeJSON to encoding/json on whole batches of
// the bulk load, which FuzzWireCodec seeds in small.
func TestBulkBodies(t *testing.T) {
	for _, b := range bulkSeeds(10000) {
		checkDecodeAll(t, b)
	}
}

// checkDecodeAll decodes b as each of the eleven shapes.
func checkDecodeAll(t *testing.T, b []byte) {
	t.Helper()
	checkDecode[client.QueryRequest, QueryRequest](t, b, true)
	checkDecode[client.CountRequest, CountRequest](t, b, true)
	checkDecode[client.QueryResponse, QueryResponse](t, b, false)
	checkDecode[client.QueryOpenResponse, QueryOpenResponse](t, b, false)
	checkDecode[client.CountResponse, CountResponse](t, b, false)
	checkDecode[client.InsertRequest, InsertRequest](t, b, true)
	checkDecode[client.DeleteRequest, DeleteRequest](t, b, true)
	checkDecode[client.PreferRequest, PreferRequest](t, b, true)
	checkDecode[client.InsertResponse, InsertResponse](t, b, false)
	checkDecode[client.DeleteResponse, DeleteResponse](t, b, false)
	checkDecode[client.VersionResponse, VersionResponse](t, b, false)
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
	gerr := client.DecodeJSON(b, &got, strict)
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
	if err := client.DecodeJSON(body, &got, true); err != nil {
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
	if err := client.DecodeJSON([]byte(`{"answer":"true","version":2,"versions":{"R":2}}`), &resp, false); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Versions, map[string]uint64{"S": 1, "R": 2}) {
		t.Fatalf("versions = %v, want the merge of S:1 and R:2", resp.Versions)
	}
}

// TestDecodeJSONTakesCanonicalBodies: the bodies the Go client and
// prefserve exchange for a point read, a write and a bulk load are
// read by the fast path, not handed to encoding/json — which the fuzz
// target alone cannot tell, since the fallback agrees with the
// reference by construction. The
// fast path allocates the value and its strings, maps and slices only:
// at most half of what json.Decoder allocates for the same body, or two
// thirds where the body holds a list, whose growth costs both decoders
// about the same.
func TestDecodeJSONTakesCanonicalBodies(t *testing.T) {
	bulk := bulkSeeds(10000)
	for _, c := range []struct {
		body   string
		v      func() any
		list   bool // a list of several elements, whose growth both decoders pay
		strict bool // a request
	}{
		{wireSeeds[0], func() any { return new(client.QueryRequest) }, false, true},
		{wireSeeds[1], func() any { return new(client.QueryRequest) }, false, true},
		{wireSeeds[5], func() any { return new(client.CountRequest) }, false, true},
		{wireSeeds[6], func() any { return new(client.QueryResponse) }, false, false},
		{wireSeeds[8], func() any { return new(client.QueryOpenResponse) }, false, false},
		{wireSeeds[11], func() any { return new(client.CountResponse) }, false, false},
		{wireSeeds[28], func() any { return new(client.InsertRequest) }, true, true},
		{wireSeeds[29], func() any { return new(client.DeleteRequest) }, false, true},
		{wireSeeds[30], func() any { return new(client.PreferRequest) }, false, true},
		{wireSeeds[31], func() any { return new(client.InsertResponse) }, false, false},
		{wireSeeds[32], func() any { return new(client.DeleteResponse) }, false, false},
		{wireSeeds[33], func() any { return new(client.VersionResponse) }, false, false},
		{string(bulk[0]), func() any { return new(client.InsertRequest) }, true, true},
		{string(bulk[1]), func() any { return new(client.PreferRequest) }, true, true},
		{string(bulk[2]), func() any { return new(client.InsertResponse) }, true, false},
	} {
		b := []byte(c.body)
		fast := testing.AllocsPerRun(50, func() {
			if err := client.DecodeJSON(b, c.v(), c.strict); err != nil {
				t.Fatal(err)
			}
		})
		ref := testing.AllocsPerRun(50, func() {
			dec := json.NewDecoder(bytes.NewReader(b))
			if c.strict {
				dec.DisallowUnknownFields()
			}
			dec.Decode(c.v()) //nolint:errcheck // counted only
		})
		bound := ref / 2
		if c.list {
			bound = ref * 2 / 3
		}
		if fast > bound {
			t.Errorf("DecodeJSON(%.200q) allocates %v objects, json.Decoder %v: the fast path declined it", b, fast, ref)
		}
	}
}
