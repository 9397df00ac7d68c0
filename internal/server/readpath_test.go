package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"prefcqa"
	"prefcqa/client"
)

// clusterServer returns a server holding database "bench": R(K, V)
// with K -> V and n two-tuple clusters {(k,0), (k,1)}, each oriented
// towards (k,0) — the point_read workload's dataset in small.
func clusterServer(tb testing.TB, opts Options, n int) *Server {
	tb.Helper()
	srv := New(opts)
	db, err := srv.CreateDB("bench")
	if err != nil {
		tb.Fatal(err)
	}
	r, err := db.CreateRelation("R", prefcqa.IntAttr("K"), prefcqa.IntAttr("V"))
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.AddFD("K -> V"); err != nil {
		tb.Fatal(err)
	}
	rows := make([]prefcqa.Tuple, 0, 2*n)
	for k := 0; k < n; k++ {
		rows = append(rows, prefcqa.Tuple{prefcqa.Int(int64(k)), prefcqa.Int(0)}, prefcqa.Tuple{prefcqa.Int(int64(k)), prefcqa.Int(1)})
	}
	ids, err := r.InsertRows(rows)
	if err != nil {
		tb.Fatal(err)
	}
	pairs := make([][2]prefcqa.TupleID, n)
	for k := range pairs {
		pairs[k] = [2]prefcqa.TupleID{ids[2*k], ids[2*k+1]}
	}
	if err := r.PreferPairs(pairs); err != nil {
		tb.Fatal(err)
	}
	return srv
}

// replayBody is a request body the handler can read again and again.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// replyRecorder is an http.ResponseWriter that keeps the last reply and
// allocates nothing of its own once warm.
type replyRecorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *replyRecorder) Header() http.Header { return w.header }

func (w *replyRecorder) WriteHeader(code int) { w.code = code }

func (w *replyRecorder) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}

// readCall returns a function that serves one POST of body to path
// through srv's handler and returns the status and reply body.
func readCall(srv *Server, path string, body []byte) func() (int, string) {
	h := srv.Handler()
	rb := new(replayBody)
	req := httptest.NewRequest(http.MethodPost, path, nil)
	req.ContentLength = int64(len(body))
	w := &replyRecorder{header: http.Header{}}
	return func() (int, string) {
		rb.Reset(body)
		req.Body = rb
		clear(w.header)
		w.code = 0
		w.body.Reset()
		h.ServeHTTP(w, req)
		return w.code, w.body.String()
	}
}

// readBodies are the three point reads of the serving benchmark, as its
// traced replay marshals them.
func readBodies(tb testing.TB) []struct{ name, path, body, reply string } {
	tb.Helper()
	opts := client.ReadOptions{TimeoutMS: 5000}
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		return string(b)
	}
	return []struct{ name, path, body, reply string }{
		{"ground", client.PathQuery,
			marshal(client.QueryRequest{DB: "bench", Family: "global", Query: "R(17, 0)", ReadOptions: opts}),
			`{"answer":"true","version":4,"versions":{"R":2000}}` + "\n"},
		{"quantified", client.PathQuery,
			marshal(client.QueryRequest{DB: "bench", Family: "global", Query: "EXISTS v . R(17, v) AND v < 1", ReadOptions: opts}),
			`{"answer":"true","version":4,"versions":{"R":2000}}` + "\n"},
		{"open", client.PathQueryOpen,
			marshal(client.QueryRequest{DB: "bench", Family: "global", Query: "R(17, x)", ReadOptions: opts}),
			`{"bindings":[{"x":"0"}],"version":4}` + "\n"},
	}
}

// perCall returns the objects and bytes one warm call of fn allocates,
// averaged over runs calls, with the collector off (a collection
// empties the body pool, and refilling it mid-measure would make the
// count depend on when the collector ran).
func perCall(runs int, fn func()) (allocs, bytes uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestReadHandlerAllocations is the allocation gate of the read round
// trip's server half: objects and bytes per warm point read through
// Server.Handler, from the request body to the reply bytes, on 1 000
// clusters. Reading the request and writing the reply through
// encoding/json, and building a /v1/query reply's versions map per
// read, cost 43, 55 and 112 objects (2 784, 3 792 and 7 072 B) for the
// three reads below; the client codec and the pin's shared map take 10
// to 12 objects and about 1 KB off each (31, 43 and 102 objects), and a
// codec scanner that stays on the stack and a tuple key built on it
// take up to 4 more (29, 43 and 98).
func TestReadHandlerAllocations(t *testing.T) {
	srv := clusterServer(t, Options{}, 1000)
	limits := map[string]struct{ allocs, bytes uint64 }{
		"ground":     {37, 2150},
		"quantified": {49, 3150},
		"open":       {107, 6560},
	}
	for _, c := range readBodies(t) {
		call := readCall(srv, c.path, []byte(c.body))
		if code, reply := call(); code != http.StatusOK || reply != c.reply {
			t.Fatalf("%s: %d %q, want 200 %q", c.name, code, reply, c.reply)
		}
		allocs, bytes := perCall(200, func() { call() })
		t.Logf("%s: %d objects, %d B per read", c.name, allocs, bytes)
		// Under -race, sync.Pool drops a share of what it is given, and
		// each drop re-allocates a pooled buffer: count objects only.
		lim := limits[c.name]
		if allocs > lim.allocs || !raceEnabled() && bytes > lim.bytes {
			t.Errorf("%s read allocates %d objects and %d B, limit %d and %d B", c.name, allocs, bytes, lim.allocs, lim.bytes)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// BenchmarkReadHandler times the three point reads of
// TestReadHandlerAllocations through Server.Handler.
func BenchmarkReadHandler(b *testing.B) {
	srv := clusterServer(b, Options{}, 1000)
	for _, c := range readBodies(b) {
		b.Run(c.name, func(b *testing.B) {
			call := readCall(srv, c.path, []byte(c.body))
			if code, reply := call(); code != http.StatusOK || reply != c.reply {
				b.Fatalf("%d %q, want 200 %q", code, reply, c.reply)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call()
			}
		})
	}
}

// TestHugeTimeoutRunsUnderMaxTimeout: a timeout_ms whose product with
// a millisecond overflows a time.Duration is clamped to MaxTimeout, not
// wrapped into a deadline already past.
func TestHugeTimeoutRunsUnderMaxTimeout(t *testing.T) {
	srv := clusterServer(t, Options{}, 4)
	body := `{"db":"bench","family":"global","query":"R(1, 0)","timeout_ms":10000000000000}`
	if code, reply := readCall(srv, client.PathQuery, []byte(body))(); code != http.StatusOK {
		t.Fatalf("timeout_ms 1e13: %d %s, want 200", code, reply)
	}
}

// TestReadBodyReplies pins the status and message of every read body
// the codec's fast path declines: each is answered by the json.Decoder
// the server has always used, as before the codec.
func TestReadBodyReplies(t *testing.T) {
	srv := clusterServer(t, Options{MaxBodyBytes: 96}, 4)
	query := `"family":"global","query":"R(1, 0)"`
	answer := `{"answer":"true","version":4,"versions":{"R":8}}`
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
	cases := []struct {
		name, path, body string
		code             int
		reply            string
	}{
		{"canonical", client.PathQuery, `{"db":"bench",` + query + `}`, 200, answer},
		{"case-folded key", client.PathQuery, `{"DB":"bench",` + query + `}`, 200, answer},
		{"unknown field", client.PathQuery, `{"db":"bench","bogus":1,` + query + `}`, 400, `{"error":"bad request body: json: unknown field \"bogus\""}`},
		{"null", client.PathQuery, `null`, 400, `{"error":"core: unknown repair family \"\""}`},
		{"null member", client.PathQuery, `{"db":null,` + query + `}`, 404, `{"error":"unknown database \"\""}`},
		{"trailing data", client.PathQuery, `{"db":"bench",` + query + `} trailing`, 200, answer},
		{"float timeout_ms", client.PathQuery, `{"db":"bench",` + query + `,"timeout_ms":1.5}`, 400,
			jsonError(new(client.QueryRequest), `{"timeout_ms":1.5}`)},
		{"empty body", client.PathQuery, ``, 400, `{"error":"bad request body: EOF"}`},
		{"over MaxBodyBytes", client.PathQuery, `{"db":"bench",` + query + `,"padding":"` + strings.Repeat("x", 64) + `"}`, 400,
			`{"error":"bad request body: http: request body too large"}`},
		{"value within MaxBodyBytes, body over", client.PathQuery, `{"db":"bench",` + query + `}` + strings.Repeat(" ", 64), 200,
			answer},
		{"open, unknown field", client.PathQueryOpen, `{"db":"bench","relation":"R",` + query + `}`, 400, `{"error":"bad request body: json: unknown field \"relation\""}`},
		{"count, canonical", client.PathCount, `{"db":"bench","family":"global","relation":"R"}`, 200, `{"count":1,"version":4}`},
		{"count, query field", client.PathCount, `{"db":"bench",` + query + `}`, 400, `{"error":"bad request body: json: unknown field \"query\""}`},
		{"count, negative min_version", client.PathCount, `{"db":"bench","family":"global","relation":"R","min_version":-1}`, 400,
			jsonError(new(client.CountRequest), `{"min_version":-1}`)},
	}
	for _, c := range cases {
		// Every reply is one line, as json.Encoder writes it.
		code, reply := readCall(srv, c.path, []byte(c.body))()
		if code != c.code || reply != c.reply+"\n" {
			t.Errorf("%s: %d %q, want %d %q", c.name, code, reply, c.code, c.reply+"\n")
		}
	}
}
