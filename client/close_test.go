package client

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"prefcqa"
)

// TestCloseDropsIdleConnections: requests share one keep-alive
// connection until Close, after which the next request dials again —
// for a Client and, through it, for every member of a ReplicaSet.
func TestCloseDropsIdleConnections(t *testing.T) {
	var dials atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(QueryResponse{Answer: "true"}) //nolint:errcheck // test stub
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	ctx := context.Background()
	query := func(q interface {
		Query(context.Context, string, prefcqa.Family, string, ...ReadOption) (prefcqa.Answer, error)
	}) {
		t.Helper()
		if _, err := q.Query(ctx, "db", prefcqa.Global, "R(1)"); err != nil {
			t.Fatal(err)
		}
	}
	// A transport of its own: http.DefaultTransport is shared with
	// whatever else the test binary runs.
	c := New(srv.URL, WithHTTPClient(&http.Client{Transport: &http.Transport{}}))
	query(c)
	query(c)
	if got := dials.Load(); got != 1 {
		t.Fatalf("two requests dialed %d times, want 1 (keep-alive)", got)
	}
	c.Close()
	query(c)
	if got := dials.Load(); got != 2 {
		t.Fatalf("after Close the client had dialed %d times, want 2", got)
	}

	rs := NewReplicaSet(srv.URL, []string{srv.URL}, WithHTTPClient(&http.Client{Transport: &http.Transport{}}))
	query(rs)
	before := dials.Load()
	rs.Close()
	query(rs)
	if got := dials.Load() - before; got != 1 {
		t.Fatalf("after ReplicaSet.Close the next read dialed %d times, want 1", got)
	}
	rs.Close()
	c.Close()
}
