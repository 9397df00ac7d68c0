package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"prefcqa"
	"prefcqa/client"
)

// boot starts a server on a real loopback socket and returns a client
// for it. The server is shut down with the test.
func boot(t *testing.T, opts Options) (*Server, *client.Client) {
	t.Helper()
	srv := New(opts)
	return srv, client.New("http://" + serve(t, srv))
}

// serve starts srv on a loopback socket, returns its address and shuts
// it down with the test.
func serve(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil && err != http.ErrServerClosed {
			t.Errorf("serve: %v", err)
		}
	})
	return l.Addr().String()
}

// mustStatus asserts err is an APIError with the given status.
func mustStatus(t *testing.T, err error, want int) {
	t.Helper()
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want APIError with status %d", err, want)
	}
	if ae.Status != want {
		t.Fatalf("status = %d (%s), want %d", ae.Status, ae.Message, want)
	}
}

func row(t *testing.T, vals ...any) prefcqa.Tuple {
	t.Helper()
	tup, err := prefcqa.MakeTuple(vals...)
	if err != nil {
		t.Fatal(err)
	}
	return tup
}

// TestEndToEnd drives every endpoint once through a real socket: the
// paper's running example served over the wire.
func TestEndToEnd(t *testing.T) {
	_, c := boot(t, Options{})
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDB(ctx, "mgmt"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateRelation(ctx, "mgmt", "Mgr",
		client.NameAttr("Name"), client.NameAttr("Dept"), client.IntAttr("Salary")); err != nil {
		t.Fatal(err)
	}
	ids, _, err := c.Insert(ctx, "mgmt", "Mgr",
		row(t, "Mary", "R&D", 40),
		row(t, "John", "R&D", 10),
		row(t, "Mary", "IT", 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	if _, err := c.AddFD(ctx, "mgmt", "Mgr", "Dept -> Name, Salary"); err != nil {
		t.Fatal(err)
	}
	// Unresolved conflict between Mary/R&D and John/R&D: undetermined.
	q := "EXISTS d, s . Mgr('Mary', d, s) AND s > 30"
	if a, err := c.Query(ctx, "mgmt", prefcqa.Global, q); err != nil || a != prefcqa.Undetermined {
		t.Fatalf("pre-preference answer = %v, %v", a, err)
	}
	wv, err := c.Prefer(ctx, "mgmt", "Mgr", [2]int{ids[0], ids[1]})
	if err != nil {
		t.Fatal(err)
	}
	if a, err := c.Query(ctx, "mgmt", prefcqa.Global, q, client.MinVersion(wv)); err != nil || a != prefcqa.True {
		t.Fatalf("post-preference answer = %v, %v", a, err)
	}
	// Open query: which departments certainly employ Mary?
	bindings, err := c.QueryOpen(ctx, "mgmt", prefcqa.Global, "EXISTS s . Mgr('Mary', d, s)")
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 2 { // d = 'R&D' (preferred) and d = 'IT' (clean)
		t.Fatalf("bindings = %v", bindings)
	}
	// Counts per family.
	if n, err := c.CountRepairs(ctx, "mgmt", prefcqa.Rep, "Mgr"); err != nil || n != 2 {
		t.Fatalf("Rep count = %d, %v", n, err)
	}
	if n, err := c.CountRepairs(ctx, "mgmt", prefcqa.Global, "Mgr"); err != nil || n != 1 {
		t.Fatalf("Global count = %d, %v", n, err)
	}
	// Streamed enumeration.
	var repairs []*prefcqa.Instance
	truncated, err := c.Repairs(ctx, "mgmt", prefcqa.Rep, "Mgr", 0, func(inst *prefcqa.Instance) bool {
		repairs = append(repairs, inst)
		return true
	})
	if err != nil || truncated || len(repairs) != 2 {
		t.Fatalf("repairs = %d instances, truncated %v, err %v", len(repairs), truncated, err)
	}
	for _, inst := range repairs {
		if inst.Len() != 2 {
			t.Fatalf("repair %s has %d tuples, want 2", inst, inst.Len())
		}
	}
	// Truncation at max — and no false truncation when the count
	// exactly meets the cap.
	var n int
	truncated, err = c.Repairs(ctx, "mgmt", prefcqa.Rep, "Mgr", 1, func(*prefcqa.Instance) bool { n++; return true })
	if err != nil || !truncated || n != 1 {
		t.Fatalf("max=1 repairs: n=%d truncated=%v err=%v", n, truncated, err)
	}
	n = 0
	truncated, err = c.Repairs(ctx, "mgmt", prefcqa.Rep, "Mgr", 2, func(*prefcqa.Instance) bool { n++; return true })
	if err != nil || truncated || n != 2 {
		t.Fatalf("max=2 repairs of exactly 2: n=%d truncated=%v err=%v", n, truncated, err)
	}
	// Plan explanation.
	exp, err := c.Explain(ctx, "mgmt", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Plans) == 0 {
		t.Fatalf("explain = %+v", exp)
	}
	// Delete John: the conflict disappears, every family agrees.
	if deleted, _, err := c.Delete(ctx, "mgmt", "Mgr", ids[1]); err != nil || deleted != 1 {
		t.Fatalf("deleted = %d, %v", deleted, err)
	}
	if n, err := c.CountRepairs(ctx, "mgmt", prefcqa.Rep, "Mgr"); err != nil || n != 1 {
		t.Fatalf("post-delete Rep count = %d, %v", n, err)
	}
	// Stats.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ds, ok := st.DBs["mgmt"]
	if !ok || ds.WriteVersion == 0 {
		t.Fatalf("stats = %+v", st)
	}
	rs, ok := ds.Relations["Mgr"]
	if !ok || rs.Tuples != 2 || rs.Conflicts != 0 {
		t.Fatalf("relation stats = %+v", rs)
	}
	if st.Server.Served == 0 || st.Server.MaxInflight != 64 {
		t.Fatalf("server stats = %+v", st.Server)
	}
}

// TestErrorMapping: protocol errors carry meaningful status codes.
func TestErrorMapping(t *testing.T) {
	_, c := boot(t, Options{})
	ctx := context.Background()
	_, err := c.Query(ctx, "nosuch", prefcqa.Rep, "R(1)")
	mustStatus(t, err, http.StatusNotFound)
	if err := c.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	mustStatus(t, c.CreateDB(ctx, "d"), http.StatusConflict)
	_, _, err = c.Insert(ctx, "d", "nosuch", row(t, 1))
	mustStatus(t, err, http.StatusNotFound)
	if _, err := c.CreateRelation(ctx, "d", "R", client.IntAttr("A"), client.IntAttr("B")); err != nil {
		t.Fatal(err)
	}
	_, err = c.CountRepairs(ctx, "d", prefcqa.Rep, "nosuch")
	mustStatus(t, err, http.StatusNotFound)
	// Bad family and bad query are 400s.
	var out client.QueryResponse
	err = clientDo(c, ctx, client.PathQuery, client.QueryRequest{DB: "d", Family: "bogus", Query: "R(1, 2)"}, &out)
	mustStatus(t, err, http.StatusBadRequest)
	_, err = c.Query(ctx, "d", prefcqa.Rep, "R(unclosed")
	mustStatus(t, err, http.StatusBadRequest)
	// Contradictory preferences surface as 409 on the next read.
	ids, _, err := c.Insert(ctx, "d", "R", row(t, 1, 10), row(t, 1, 20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddFD(ctx, "d", "R", "A -> B"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prefer(ctx, "d", "R", [2]int{ids[0], ids[1]}, [2]int{ids[1], ids[0]}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(ctx, "d", prefcqa.Global, "R(1, 10)")
	mustStatus(t, err, http.StatusConflict)
	// Unknown tuple IDs in a preference are a 400.
	_, err = c.Prefer(ctx, "d", "R", [2]int{404, 405})
	mustStatus(t, err, http.StatusBadRequest)
}

// TestRelationSchemaErrors: a schema the request spells wrong is the
// request's fault (400); 409 means only that the relation exists.
func TestRelationSchemaErrors(t *testing.T) {
	_, c := boot(t, Options{})
	ctx := context.Background()
	if err := c.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]client.RelationRequest{
		"duplicate attribute": {DB: "d", Relation: "R", Attrs: []prefcqa.WireAttr{{Name: "A", Kind: "int"}, {Name: "A", Kind: "int"}}},
		"empty attribute":     {DB: "d", Relation: "R", Attrs: []prefcqa.WireAttr{{Name: "", Kind: "int"}}},
		"unknown kind":        {DB: "d", Relation: "R", Attrs: []prefcqa.WireAttr{{Name: "A", Kind: "float"}}},
		"empty relation name": {DB: "d", Relation: "", Attrs: []prefcqa.WireAttr{{Name: "A", Kind: "int"}}},
	} {
		err := c.Do(ctx, client.PathRelation, req, nil)
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want status 400", name, err)
		}
	}
	if _, err := c.CreateRelation(ctx, "d", "R", client.IntAttr("A")); err != nil {
		t.Fatalf("a well-formed schema after the rejected ones: %v", err)
	}
	_, err := c.CreateRelation(ctx, "d", "R", client.IntAttr("A"))
	mustStatus(t, err, http.StatusConflict)
}

// TestInsertBatchAtomicity: a batch with a malformed row inserts
// nothing — no partial, unversioned mutation that would later
// surface as a phantom.
func TestInsertBatchAtomicity(t *testing.T) {
	_, c := boot(t, Options{})
	ctx := context.Background()
	if err := c.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateRelation(ctx, "d", "R", client.IntAttr("A"), client.IntAttr("B")); err != nil {
		t.Fatal(err)
	}
	err := c.Do(ctx, client.PathInsert, client.InsertRequest{
		DB: "d", Relation: "R",
		Rows: [][]string{{"1", "2"}, {"3", "'notanint'"}},
	}, nil)
	mustStatus(t, err, http.StatusBadRequest)
	// The valid first row must not have been applied.
	if a, err := c.Query(ctx, "d", prefcqa.Rep, "R(1, 2)"); err != nil || a != prefcqa.False {
		t.Fatalf("phantom row visible: R(1, 2) = %v, %v", a, err)
	}
	// A subsequent write must not resurrect it either.
	if _, _, err := c.Insert(ctx, "d", "R", row(t, 7, 8)); err != nil {
		t.Fatal(err)
	}
	if a, err := c.Query(ctx, "d", prefcqa.Rep, "R(1, 2)"); err != nil || a != prefcqa.False {
		t.Fatalf("phantom row appeared after a later write: R(1, 2) = %v, %v", a, err)
	}
}

// clientDo sends a raw request through the typed client's transport —
// for protocol shapes the typed methods refuse to build.
func clientDo(c *client.Client, ctx context.Context, path string, in, out any) error {
	return c.Do(ctx, path, in, out)
}

// TestDeadline: a server whose default deadline is unmeetably small
// answers reads with 504 (and counts the timeout), while writes are
// unaffected.
func TestDeadline(t *testing.T) {
	srv, c := boot(t, Options{DefaultTimeout: time.Nanosecond})
	ctx := context.Background()
	if err := c.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateRelation(ctx, "d", "R", client.IntAttr("A")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Insert(ctx, "d", "R", row(t, 1)); err != nil {
		t.Fatal(err) // writes take no evaluation deadline
	}
	_, err := c.Query(ctx, "d", prefcqa.Rep, "R(1)")
	mustStatus(t, err, http.StatusGatewayTimeout)
	if got := srv.Stats().Timeouts; got == 0 {
		t.Fatalf("timeouts = %d, want > 0", got)
	}
	// Explain honors the same deadline machinery as the other reads.
	_, err = c.Explain(ctx, "d", "R(1)")
	mustStatus(t, err, http.StatusGatewayTimeout)
	// A client-supplied budget overrides the tiny default.
	if a, err := c.Query(ctx, "d", prefcqa.Rep, "R(1)", client.Timeout(10*time.Second)); err != nil || a != prefcqa.True {
		t.Fatalf("budgeted query = %v, %v", a, err)
	}
}

// TestAdmissionControl: with every slot taken, requests wait out the
// default timeout and are rejected with 503.
func TestAdmissionControl(t *testing.T) {
	srv, c := boot(t, Options{MaxInflight: 2, DefaultTimeout: 30 * time.Millisecond})
	ctx := context.Background()
	if err := c.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	// Occupy both slots from inside (white-box: the handlers would
	// hold them while evaluating).
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	err := c.CreateDB(ctx, "d2")
	mustStatus(t, err, http.StatusServiceUnavailable)
	if got := srv.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	// Freeing a slot lets the next request through.
	<-srv.sem
	if err := c.CreateDB(ctx, "d2"); err != nil {
		t.Fatal(err)
	}
	<-srv.sem
}

// TestReadYourWrites: a write's published version carried as
// min_version makes any later read observe it — and the default read
// already does.
func TestReadYourWrites(t *testing.T) {
	_, c := boot(t, Options{})
	ctx := context.Background()
	if err := c.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateRelation(ctx, "d", "R", client.IntAttr("A")); err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 20; i++ {
		_, wv, err := c.Insert(ctx, "d", "R", row(t, i))
		if err != nil {
			t.Fatal(err)
		}
		last = wv
		a, err := c.Query(ctx, "d", prefcqa.Rep, "EXISTS x . R(x) AND x > "+itoa(i-1), client.MinVersion(wv))
		if err != nil || a != prefcqa.True {
			t.Fatalf("i=%d: read-your-write = %v, %v", i, a, err)
		}
	}
	// A min_version this database never issued (e.g. from another
	// database) is rejected, not silently served stale.
	_, err := c.Query(ctx, "d", prefcqa.Rep, "R(0)", client.MinVersion(last+1000))
	mustStatus(t, err, http.StatusPreconditionFailed)
}

func jsonDecode(resp *http.Response, out any) error {
	return json.NewDecoder(resp.Body).Decode(out)
}

func itoa(i int) string {
	if i < 0 {
		return "-" + itoa(-i)
	}
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + itoa(i%10)
}

// TestSnapshotCacheReuse: reads between writes share one snapshot
// (the cached pin), and a write invalidates it.
func TestSnapshotCacheReuse(t *testing.T) {
	srv, c := boot(t, Options{})
	ctx := context.Background()
	if err := c.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateRelation(ctx, "d", "R", client.IntAttr("A")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Insert(ctx, "d", "R", row(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CountRepairs(ctx, "d", prefcqa.Rep, "R"); err != nil {
		t.Fatal(err)
	}
	srv.mu.RLock()
	tn := srv.tenants["d"]
	srv.mu.RUnlock()
	p1 := tn.snap.Load()
	if p1 == nil {
		t.Fatal("no cached snapshot after a read")
	}
	if _, err := c.CountRepairs(ctx, "d", prefcqa.Rep, "R"); err != nil {
		t.Fatal(err)
	}
	if p2 := tn.snap.Load(); p2 != p1 {
		t.Fatal("second read did not reuse the cached snapshot")
	}
	if _, _, err := c.Insert(ctx, "d", "R", row(t, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CountRepairs(ctx, "d", prefcqa.Rep, "R"); err != nil {
		t.Fatal(err)
	}
	if p3 := tn.snap.Load(); p3 == p1 {
		t.Fatal("read after a write served the stale snapshot")
	}
}

// TestWireInteroperability: the protocol is plain HTTP/JSON — a raw
// request with no typed client gets a well-formed answer (the curl
// path of the README).
func TestWireInteroperability(t *testing.T) {
	_, c := boot(t, Options{})
	ctx := context.Background()
	if err := c.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateRelation(ctx, "d", "R", client.NameAttr("N"), client.IntAttr("A")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Insert(ctx, "d", "R", row(t, "it's", 42)); err != nil {
		t.Fatal(err)
	}
	base := c.BaseURL()
	resp, err := http.Post(base+client.PathQuery, "application/json",
		strings.NewReader(`{"db":"d","family":"rep","query":"R('it''s', 42)"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Answer string `json:"answer"`
	}
	if err := jsonDecode(resp, &out); err != nil {
		t.Fatal(err)
	}
	if out.Answer != "true" {
		t.Fatalf("answer = %q", out.Answer)
	}
}

// TestStalledConnectionIsClosed: a peer that sends half a request line
// and stops is disconnected once the header timeout passes, and an idle
// keep-alive connection has a timeout too. The production values are
// asserted, then the header timeout is shortened so the test need not
// wait for it.
func TestStalledConnectionIsClosed(t *testing.T) {
	srv := New(Options{})
	if srv.http.ReadHeaderTimeout != readHeaderTimeout || srv.http.IdleTimeout != idleTimeout || readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("http.Server timeouts: header %v idle %v, want %v and %v, both positive",
			srv.http.ReadHeaderTimeout, srv.http.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	srv.http.ReadHeaderTimeout = 100 * time.Millisecond
	conn, err := net.Dial("tcp", serve(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	// The server hangs up, after whatever net/http replies; were the
	// connection still open, the read would end on this deadline instead
	// of at EOF.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if reply, err := io.ReadAll(conn); err != nil {
		t.Fatalf("after %v the stalled connection had read %q and was still open (%v); want it closed by the server", time.Since(start), reply, err)
	}
}
