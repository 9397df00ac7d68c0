package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"prefcqa"
	"prefcqa/client"
)

// durableOpts returns server options rooting every database under a
// fresh DataDir, fsyncing on each write.
func durableOpts(t *testing.T) Options {
	t.Helper()
	return Options{
		DataDir:   filepath.Join(t.TempDir(), "data"),
		DBOptions: []prefcqa.Option{prefcqa.WithSyncPolicy(prefcqa.SyncAlways)},
	}
}

// TestDurableServerRestart drives writes over the wire, shuts the
// server down (Shutdown must drain the WAL), boots a fresh server on
// the same DataDir, and requires: the databases recover by name, the
// data answers identically, and the min_version read-your-writes
// contract carries the pre-restart acked version across the restart.
func TestDurableServerRestart(t *testing.T) {
	opts := durableOpts(t)
	ctx := context.Background()

	srv, c := boot(t, opts)
	for _, db := range []string{"alpha", "beta"} {
		if err := c.CreateDB(ctx, db); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CreateRelation(ctx, db, "Mgr",
			client.NameAttr("Name"), client.NameAttr("Dept"), client.IntAttr("Salary")); err != nil {
			t.Fatal(err)
		}
	}
	ids, _, err := c.Insert(ctx, "alpha", "Mgr",
		row(t, "Mary", "R&D", 40),
		row(t, "John", "R&D", 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddFD(ctx, "alpha", "Mgr", "Dept -> Name, Salary"); err != nil {
		t.Fatal(err)
	}
	wv, err := c.Prefer(ctx, "alpha", "Mgr", [2]int{ids[0], ids[1]})
	if err != nil {
		t.Fatal(err)
	}
	// Per-named-DB WAL directories: beta's log must not see alpha's
	// writes.
	if _, _, err := c.Insert(ctx, "beta", "Mgr", row(t, "Zoe", "IT", 7)); err != nil {
		t.Fatal(err)
	}
	// Shut down via the test cleanup path of a nested boot is not
	// possible; stop this instance explicitly so the next one can own
	// the directory state.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	srv2 := New(opts)
	names, err := srv2.RecoverDBs()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("recovered %v, want [alpha beta]", names)
	}

	// Serve the recovered state over a fresh socket.
	_, c2 := boot2(t, srv2)
	// min_version from before the restart must be honoured, not 412:
	// the recovered write version is at least every acked version.
	q := "EXISTS d, s . Mgr('Mary', d, s)"
	a, err := c2.Query(ctx, "alpha", prefcqa.Global, q, client.MinVersion(wv))
	if err != nil {
		t.Fatal(err)
	}
	if a != prefcqa.True {
		t.Fatalf("Query after restart = %v, want true (preference recovered)", a)
	}
	n, err := c2.CountRepairs(ctx, "alpha", prefcqa.Global, "Mgr")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("G-Rep count after restart = %d, want 1", n)
	}
	if a, err := c2.Query(ctx, "beta", prefcqa.Rep, "EXISTS d, s . Mgr('Zoe', d, s)"); err != nil || a != prefcqa.True {
		t.Fatalf("beta query after restart = %v, %v", a, err)
	}
	// A version the old server never reached is still a 412.
	_, err = c2.Query(ctx, "alpha", prefcqa.Global, q, client.MinVersion(wv+1000))
	mustStatus(t, err, 412)

	// Writes continue on the recovered log.
	if _, wv2, err := c2.Insert(ctx, "alpha", "Mgr", row(t, "Ann", "IT", 3)); err != nil || wv2 <= wv {
		t.Fatalf("post-restart insert: version %d (want > %d), err %v", wv2, wv, err)
	}
}

// boot2 serves an already-constructed server on a loopback socket,
// shutting it down with the test (boot always constructs its own).
func boot2(t *testing.T, srv *Server) (*Server, *client.Client) {
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
	return srv, client.New("http://" + l.Addr().String())
}

// TestDBNameValidation: path-traversal database names must be
// rejected before they touch the filesystem.
func TestDBNameValidation(t *testing.T) {
	_, c := boot(t, durableOpts(t))
	ctx := context.Background()
	for _, name := range []string{"..", ".", "a/b", `a\b`} {
		if err := c.CreateDB(ctx, name); err == nil {
			t.Errorf("CreateDB(%q) accepted a path-escaping name", name)
		}
	}
}

// TestPreferRequestIsOneAtomicRecord: a /v1/prefer request is one
// mutation. Ten thousand pairs move the log's sequence and the
// write-version by one, and a request naming a dead tuple ID applies
// none of its pairs and moves neither.
func TestPreferRequestIsOneAtomicRecord(t *testing.T) {
	_, c := boot(t, Options{
		DataDir:   filepath.Join(t.TempDir(), "data"),
		DBOptions: []prefcqa.Option{prefcqa.WithSyncPolicy(prefcqa.SyncNever)},
	})
	ctx := context.Background()
	if err := c.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateRelation(ctx, "d", "R", client.IntAttr("K"), client.IntAttr("V")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddFD(ctx, "d", "R", "K -> V"); err != nil {
		t.Fatal(err)
	}
	// Clusters 0..n-1 get oriented by the big request; cluster n stays
	// open for the rejected one.
	const n = 10000
	rows := make([]prefcqa.Tuple, 0, 2*n+2)
	for k := 0; k <= n; k++ {
		rows = append(rows, row(t, k, 0), row(t, k, 1))
	}
	ids, _, err := c.Insert(ctx, "d", "R", rows...)
	if err != nil {
		t.Fatal(err)
	}
	position := func() (seq, version uint64) {
		t.Helper()
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st.DBs["d"].WAL.Seq, st.DBs["d"].WriteVersion
	}

	pairs := make([][2]int, n)
	for k := range pairs {
		pairs[k] = [2]int{ids[2*k], ids[2*k+1]}
	}
	seq0, _ := position()
	v, err := c.Prefer(ctx, "d", "R", pairs...)
	if err != nil {
		t.Fatal(err)
	}
	if seq, wv := position(); seq != seq0+1 || wv != seq0+1 || v != seq0+1 {
		t.Fatalf("%d pairs: log seq %d -> %d, write-version %d, acked %d; want one step to %d", n, seq0, seq, wv, v, seq0+1)
	}
	if a, err := c.Query(ctx, "d", prefcqa.Global, "R(17, 0)", client.MinVersion(v)); err != nil || a != prefcqa.True {
		t.Fatalf("R(17, 0) after the batch = %v, %v; want true", a, err)
	}

	if _, _, err := c.Delete(ctx, "d", "R", ids[1]); err != nil {
		t.Fatal(err)
	}
	seq1, wv1 := position()
	_, err = c.Prefer(ctx, "d", "R", [2]int{ids[2*n], ids[2*n+1]}, [2]int{ids[0], ids[1]})
	mustStatus(t, err, http.StatusBadRequest)
	if seq, wv := position(); seq != seq1 || wv != wv1 {
		t.Fatalf("rejected batch moved the log %d -> %d, write-version %d -> %d", seq1, seq, wv1, wv)
	}
	q := fmt.Sprintf("R(%d, 0)", n)
	if a, err := c.Query(ctx, "d", prefcqa.Global, q); err != nil || a != prefcqa.Undetermined {
		t.Fatalf("%s after the rejected batch = %v, %v; want undetermined (its first pair must not apply)", q, a, err)
	}
}

// TestDeleteRequestIsOneRecord: a /v1/delete of live, dead, repeated
// and never-assigned IDs answers the live count and steps the version —
// and the log — exactly once; the record it wrote holds the live IDs
// once each, in request order.
func TestDeleteRequestIsOneRecord(t *testing.T) {
	srv, c := boot(t, durableOpts(t))
	ctx := context.Background()
	if err := c.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateRelation(ctx, "d", "R", client.IntAttr("K"), client.IntAttr("V")); err != nil {
		t.Fatal(err)
	}
	ids, _, err := c.Insert(ctx, "d", "R", row(t, 1, 0), row(t, 1, 1), row(t, 2, 0), row(t, 2, 1), row(t, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n, _, err := c.Delete(ctx, "d", "R", ids[4]); err != nil || n != 1 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	walSeq := func() uint64 {
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st.DBs["d"].WAL.Seq
	}
	before := walSeq()
	n, v, err := c.Delete(ctx, "d", "R", ids[3], ids[4], ids[0], ids[3], 99, ids[1])
	if err != nil || n != 3 {
		t.Fatalf("Delete = %d, %v; want the 3 live IDs", n, err)
	}
	if v != before+1 || walSeq() != before+1 {
		t.Fatalf("version %d, log seq %d after one delete request at %d: want one step", v, walSeq(), before)
	}
	srv.mu.RLock()
	db := srv.tenants["d"].db
	srv.mu.RUnlock()
	recs, err := db.ReplReadFrom(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{ids[3], ids[0], ids[1]}; len(recs) != 1 || recs[0].Op != "delete" || fmt.Sprint(recs[0].IDs) != fmt.Sprint(want) {
		t.Fatalf("log tail %+v, want one delete record with IDs %v", recs, want)
	}
	if n, v2, err := c.Delete(ctx, "d", "R", ids[0], 99); err != nil || n != 0 || v2 != v {
		t.Fatalf("a request with nothing live: %d deleted, version %d, %v; want 0 at version %d", n, v2, err, v)
	}
	if a, err := c.Query(ctx, "d", prefcqa.Rep, "R(2, 0) AND NOT R(1, 0) AND NOT R(1, 1) AND NOT R(2, 1)", client.MinVersion(v)); err != nil || a != prefcqa.True {
		t.Fatalf("after the batch: %v, %v", a, err)
	}
}
