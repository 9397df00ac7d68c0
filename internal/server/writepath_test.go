package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/iotest"

	"prefcqa/client"
)

// TestWriteBodyReplies pins the status and message of the write bodies
// the codec's fast path declines or the handlers refuse: each gets the
// reply it got when every body went through json.Decoder.
func TestWriteBodyReplies(t *testing.T) {
	// A type error's text names the field's path, which differs between
	// Go releases: the reply carries encoding/json's own.
	jsonError := func(dst any, body string) string {
		err := json.Unmarshal([]byte(body), dst)
		if err == nil {
			t.Fatalf("%s decodes", body)
		}
		reply, _ := json.Marshal(client.ErrorResponse{Error: "bad request body: " + err.Error()})
		return string(reply)
	}
	target := `"db":"bench","relation":"R"`
	cases := []struct {
		name, path, body string
		code             int
		reply            string
	}{
		{"insert", client.PathInsert, `{` + target + `,"rows":[["9","0"],["1","1"]]}`, 200, `{"ids":[8,3],"version":5}`},
		{"bad cell", client.PathInsert, `{` + target + `,"rows":[["9","0"],["1","x"]]}`, 400,
			`{"error":"row 1: attr V: relation: wire cell \"x\" is a name, want int"}`},
		{"row of the wrong arity", client.PathInsert, `{` + target + `,"rows":[["9"]]}`, 400,
			`{"error":"row 0: 1 cells for arity-2 schema R"}`},
		{"unknown field", client.PathInsert, `{` + target + `,"rows":[],"bogus":1}`, 400,
			`{"error":"bad request body: json: unknown field \"bogus\""}`},
		{"case-folded key", client.PathInsert, `{"DB":"bench","Relation":"R","ROWS":[["9","0"]]}`, 200, `{"ids":[8],"version":5}`},
		{"rows null", client.PathInsert, `{` + target + `,"rows":null}`, 200, `{"ids":[],"version":4}`},
		{"rows empty", client.PathInsert, `{` + target + `,"rows":[]}`, 200, `{"ids":[],"version":4}`},
		{"row null", client.PathInsert, `{` + target + `,"rows":[null]}`, 400,
			`{"error":"row 0: 0 cells for arity-2 schema R"}`},
		{"trailing data", client.PathInsert, `{` + target + `,"rows":[["9","0"]]} trailing`, 200, `{"ids":[8],"version":5}`},
		{"unknown relation", client.PathInsert, `{"db":"bench","relation":"S","rows":[]}`, 404,
			`{"error":"unknown relation \"S\" in database \"bench\""}`},
		{"delete", client.PathDelete, `{` + target + `,"ids":[0,0,99]}`, 200, `{"deleted":1,"version":5}`},
		{"float in ids", client.PathDelete, `{` + target + `,"ids":[1.5]}`, 400,
			jsonError(new(client.DeleteRequest), `{"ids":[1.5]}`)},
		{"ids null", client.PathDelete, `{` + target + `,"ids":null}`, 200, `{"deleted":0,"version":4}`},
		{"prefer", client.PathPrefer, `{` + target + `,"pairs":[[1,0]]}`, 200, `{"version":5}`},
		{"float in pairs", client.PathPrefer, `{` + target + `,"pairs":[[0,1.5]]}`, 400,
			jsonError(new(client.PreferRequest), `{"pairs":[[0,1.5]]}`)},
		// encoding/json fills a [2]int from the first two elements, skips
		// the rest
		{"pair of three", client.PathPrefer, `{` + target + `,"pairs":[[1,0,7]]}`, 200, `{"version":5}`},
		// and zeroes the missing ones.
		{"pair of one", client.PathPrefer, `{` + target + `,"pairs":[[1]]}`, 200, `{"version":5}`},
		{"over MaxBodyBytes", client.PathInsert, `{` + target + `,"rows":[["9","` + strings.Repeat("1", 300) + `"]]}`, 400,
			`{"error":"bad request body: http: request body too large"}`},
		{"value within MaxBodyBytes, body over", client.PathInsert, `{` + target + `,"rows":[["9","0"]]}` + strings.Repeat(" ", 300), 200,
			`{"ids":[8],"version":5}`},
	}
	for _, c := range cases {
		// A fresh database per case, so each reply's IDs and version
		// are its own; every reply is one line, as json.Encoder writes it.
		srv := clusterServer(t, Options{MaxBodyBytes: 256}, 4)
		code, reply := readCall(srv, c.path, []byte(c.body))()
		if code != c.code || reply != c.reply+"\n" {
			t.Errorf("%s: %d %q, want %d %q", c.name, code, reply, c.code, c.reply+"\n")
		}
	}
}

// TestRequestsRejectUnknownFields: every endpoint that decodes a body
// answers 400 to a member its request type does not have, whether the
// codec's fast path or json.Decoder reads the type.
func TestRequestsRejectUnknownFields(t *testing.T) {
	srv := clusterServer(t, Options{}, 4)
	const want = `{"error":"bad request body: json: unknown field \"bogus\""}` + "\n"
	for _, path := range []string{
		client.PathCreateDB, client.PathRelation, client.PathFD,
		client.PathInsert, client.PathDelete, client.PathPrefer,
		client.PathQuery, client.PathQueryOpen, client.PathCount,
		client.PathRepairs, client.PathExplain,
	} {
		if code, reply := readCall(srv, path, []byte(`{"db":"bench","bogus":1}`))(); code != http.StatusBadRequest || reply != want {
			t.Errorf("%s: %d %q, want 400 %q", path, code, reply, want)
		}
	}
}

// TestBodyPresizeIsBounded: a request that sends its headers, claims a
// body of MaxBodyBytes and then sends nothing makes decode set aside at
// most maxPresize before the bytes arrive, not the claimed size, so the
// admitted requests of stalled peers cannot make the server hold
// MaxInflight × MaxBodyBytes.
func TestBodyPresizeIsBounded(t *testing.T) {
	srv := clusterServer(t, Options{}, 4)
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodPost, client.PathInsert, nil)
	req.ContentLength = srv.opts.MaxBodyBytes
	req.Body = io.NopCloser(iotest.ErrReader(io.ErrUnexpectedEOF)) // the peer goes away
	w := &replyRecorder{header: http.Header{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	if w.code != http.StatusBadRequest {
		t.Fatalf("header-only insert: %d %s, want 400", w.code, w.body.String())
	}
	// About maxPresize; twice that under -race, where the buffer's
	// growth allocates its new room twice over.
	const limit = 4 * maxPresize
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("a header-only request claiming %d bytes allocated %d B, limit %d", req.ContentLength, got, limit)
	}
}

// bulkLoad is the point_read workload's set-up in process, as the Go
// client sends it: the schema, 100 000 two-tuple clusters {(k,0),
// (k,1)} in 20 inserts of 10 000 rows, a preference in nine clusters
// of ten in batches of 10 000 pairs, and the first read.
type bulkLoad struct {
	inserts, prefers [][]byte
}

func newBulkLoad(tb testing.TB) bulkLoad {
	tb.Helper()
	const clusters, batch = 100000, 10000
	var l bulkLoad
	rows := make([][]string, 0, batch)
	var pairs [][2]int
	for k := 0; k < clusters; k++ {
		rows = append(rows, []string{fmt.Sprint(k), "0"}, []string{fmt.Sprint(k), "1"})
		if k%10 != 9 {
			pairs = append(pairs, [2]int{2 * k, 2*k + 1})
		}
		if len(rows) == batch {
			l.inserts = append(l.inserts, marshalBody(tb, client.InsertRequest{DB: "bench", Relation: "R", Rows: rows}))
			rows = rows[:0]
		}
		if len(pairs) == batch {
			l.prefers = append(l.prefers, marshalBody(tb, client.PreferRequest{DB: "bench", Relation: "R", Pairs: pairs}))
			pairs = pairs[:0]
		}
	}
	return l
}

func marshalBody(tb testing.TB, v any) []byte {
	b, err := client.AppendJSON(nil, v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// run loads a fresh server and answers the first read.
func (l bulkLoad) run(tb testing.TB) *Server {
	srv := New(Options{})
	for _, c := range []struct {
		path string
		body string
	}{
		{client.PathCreateDB, `{"db":"bench"}`},
		{client.PathRelation, `{"db":"bench","relation":"R","attrs":[{"name":"K","kind":"int"},{"name":"V","kind":"int"}]}`},
		{client.PathFD, `{"db":"bench","relation":"R","fd":"K -> V"}`},
	} {
		if code, reply := readCall(srv, c.path, []byte(c.body))(); code != http.StatusOK {
			tb.Fatalf("%s: %d %s", c.path, code, reply)
		}
	}
	for _, body := range l.inserts {
		if code, reply := readCall(srv, client.PathInsert, body)(); code != http.StatusOK {
			tb.Fatalf("insert: %d %.200s", code, reply)
		}
	}
	for _, body := range l.prefers {
		if code, reply := readCall(srv, client.PathPrefer, body)(); code != http.StatusOK {
			tb.Fatalf("prefer: %d %.200s", code, reply)
		}
	}
	const want = `{"answer":"true","version":31,"versions":{"R":200000}}` + "\n"
	if code, reply := readCall(srv, client.PathQuery, []byte(`{"db":"bench","family":"global","query":"R(17, 0)","timeout_ms":5000}`))(); code != http.StatusOK || reply != want {
		tb.Fatalf("first read: %d %s, want 200 %s", code, reply, want)
	}
	return srv
}

// BenchmarkBulkLoad times the point_read set-up of newBulkLoad through
// Server.Handler: the decode of the write bodies, the inserts, the
// conflict graph and the priority the first read builds.
func BenchmarkBulkLoad(b *testing.B) {
	l := newBulkLoad(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.run(b)
	}
}

// TestInsertHandlerAllocations is the allocation gate of the bulk
// insert: objects per row of a 10 000-row /v1/insert through
// Server.Handler, into a relation that already holds 10 000 tuples.
// Decoding the rows by reflection, one tuple per row and three tuple
// keys per row cost 10 objects a row; the codec's shared cell array,
// one tuple array per batch and one key per row leave 2: the row's two
// cells, and its key.
func TestInsertHandlerAllocations(t *testing.T) {
	l := newBulkLoad(t)
	srv := New(Options{})
	for _, c := range []struct{ path, body string }{
		{client.PathCreateDB, `{"db":"bench"}`},
		{client.PathRelation, `{"db":"bench","relation":"R","attrs":[{"name":"K","kind":"int"},{"name":"V","kind":"int"}]}`},
		{client.PathFD, `{"db":"bench","relation":"R","fd":"K -> V"}`},
		{client.PathInsert, string(l.inserts[0])},
	} {
		if code, reply := readCall(srv, c.path, []byte(c.body))(); code != http.StatusOK {
			t.Fatalf("%s: %d %.200s", c.path, code, reply)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	call := readCall(srv, client.PathInsert, l.inserts[1])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, reply := call()
	runtime.ReadMemStats(&after)
	if code != http.StatusOK || !strings.HasPrefix(reply, `{"ids":[10000,10001,`) {
		t.Fatalf("insert: %d %.200s", code, reply)
	}
	perRow := float64(after.Mallocs-before.Mallocs) / 10000
	t.Logf("%.2f objects, %.0f B per row", perRow, float64(after.TotalAlloc-before.TotalAlloc)/10000)
	if perRow > 3 {
		t.Fatalf("a 10 000-row insert allocates %.2f objects per row, limit 3", perRow)
	}
}
