package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"prefcqa"
	"prefcqa/client"
)

// replOptions are tight-interval settings so a test fleet converges in
// milliseconds instead of production defaults.
func replOptions(t *testing.T) Options {
	return Options{
		DataDir:           t.TempDir(),
		DBOptions:         []prefcqa.Option{prefcqa.WithSyncPolicy(prefcqa.SyncGroup)},
		DiscoverInterval:  25 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
	}
}

// bootFollower boots a follower of the given primary URL and starts
// replication.
func bootFollower(t *testing.T, primaryURL string, extra func(*Options)) (*Server, *client.Client) {
	t.Helper()
	opts := replOptions(t)
	opts.FollowURL = primaryURL
	if extra != nil {
		extra(&opts)
	}
	srv, c := boot(t, opts)
	if err := srv.StartReplication(); err != nil {
		t.Fatal(err)
	}
	return srv, c
}

// seedCluster writes one two-tuple conflict cluster for key k through
// the client and returns the write-version of its completing prefer.
func seedCluster(t *testing.T, c *client.Client, db string, k int) uint64 {
	t.Helper()
	ctx := context.Background()
	ids, _, err := c.Insert(ctx, db, "R", row(t, k, 0))
	if err != nil {
		t.Fatal(err)
	}
	ids2, _, err := c.Insert(ctx, db, "R", row(t, k, 1))
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Prefer(ctx, db, "R", [2]int{ids[0], ids2[0]})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

var allFamilies = []prefcqa.Family{prefcqa.Rep, prefcqa.Local, prefcqa.SemiGlobal, prefcqa.Global, prefcqa.Common}

// collectRepairs streams every repair and returns a canonical sorted
// serialization, for bit-for-bit comparison across servers.
func collectRepairs(t *testing.T, c *client.Client, db string, f prefcqa.Family, v uint64) []string {
	t.Helper()
	var out []string
	_, err := c.Repairs(context.Background(), db, f, "R", 0, func(inst *prefcqa.Instance) bool {
		w := prefcqa.EncodeWire(inst)
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
		return true
	}, client.MinVersion(v))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestReplicationEndToEnd is the tentpole integration test: concurrent
// writers churn the primary while readers on two followers demand
// read-your-writes at each write's version; then, quiesced, every
// server must answer every read shape — all five repair families,
// counts, open queries, streamed repair enumerations — bit for bit
// identically at the same watermark. Run under -race in CI.
func TestReplicationEndToEnd(t *testing.T) {
	_, pc := boot(t, replOptions(t))
	ctx := context.Background()
	if err := pc.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.CreateRelation(ctx, "d", "R", client.IntAttr("K"), client.IntAttr("V")); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.AddFD(ctx, "d", "R", "K -> V"); err != nil {
		t.Fatal(err)
	}

	_, f1 := bootFollower(t, pc.BaseURL(), nil)
	_, f2 := bootFollower(t, pc.BaseURL(), nil)
	followers := []*client.Client{f1, f2}

	// Writers on disjoint key ranges; each completed cluster's version
	// fans out to readers demanding it from both followers.
	const writers, perWriter = 2, 12
	type mark struct {
		k int
		v uint64
	}
	marks := make(chan mark, writers*perWriter)
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < perWriter; i++ {
				k := w*perWriter + i
				marks <- mark{k: k, v: seedCluster(t, pc, "d", k)}
			}
		}(w)
	}
	go func() { wwg.Wait(); close(marks) }()

	var rwg sync.WaitGroup
	errCh := make(chan error, 64)
	for m := range marks {
		for fi, fc := range followers {
			rwg.Add(1)
			go func(m mark, fi int, fc *client.Client) {
				defer rwg.Done()
				// The primary's answer at the same watermark is the
				// reference; every family must agree bit for bit.
				for _, fam := range allFamilies {
					q := fmt.Sprintf("R(%d, 0)", m.k)
					want, err := pc.Query(ctx, "d", fam, q, client.MinVersion(m.v))
					if err != nil {
						errCh <- fmt.Errorf("primary %v %s: %w", fam, q, err)
						return
					}
					got, err := fc.Query(ctx, "d", fam, q, client.MinVersion(m.v))
					if err != nil {
						errCh <- fmt.Errorf("follower%d %v %s: %w", fi+1, fam, q, err)
						return
					}
					if got != want {
						errCh <- fmt.Errorf("follower%d %v %s = %v, primary says %v", fi+1, fam, q, got, want)
						return
					}
				}
			}(m, fi, fc)
		}
	}
	rwg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced: the full read surface must be identical on all three
	// servers at the final watermark.
	st, err := pc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	final := st.DBs["d"].WriteVersion
	for fi, fc := range followers {
		for _, fam := range allFamilies {
			wantN, err := pc.CountRepairs(ctx, "d", fam, "R", client.MinVersion(final))
			if err != nil {
				t.Fatal(err)
			}
			gotN, err := fc.CountRepairs(ctx, "d", fam, "R", client.MinVersion(final))
			if err != nil {
				t.Fatal(err)
			}
			if gotN != wantN {
				t.Errorf("follower%d CountRepairs(%v) = %d, primary %d", fi+1, fam, gotN, wantN)
			}
			wantB, err := pc.QueryOpen(ctx, "d", fam, "EXISTS v . R(x, v)", client.MinVersion(final))
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := fc.QueryOpen(ctx, "d", fam, "EXISTS v . R(x, v)", client.MinVersion(final))
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(gotB) != fmt.Sprint(wantB) {
				t.Errorf("follower%d QueryOpen(%v) = %v, primary %v", fi+1, fam, gotB, wantB)
			}
		}
		want := collectRepairs(t, pc, "d", prefcqa.Global, final)
		got := collectRepairs(t, fc, "d", prefcqa.Global, final)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("follower%d streamed repairs differ from primary", fi+1)
		}
	}
}

func TestFollowerRefusesWritesWithRedirect(t *testing.T) {
	_, pc := boot(t, replOptions(t))
	ctx := context.Background()
	if err := pc.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.CreateRelation(ctx, "d", "R", client.IntAttr("K"), client.IntAttr("V")); err != nil {
		t.Fatal(err)
	}
	v := seedClusterNoFD(t, pc, "d", 1)

	_, fc := bootFollower(t, pc.BaseURL(), nil)
	if _, err := fc.CountRepairs(ctx, "d", prefcqa.Global, "R", client.MinVersion(v)); err != nil {
		t.Fatalf("follower read never converged: %v", err)
	}

	// Every write shape is refused with 421 naming the primary.
	_, _, err := fc.Insert(ctx, "d", "R", row(t, 9, 9))
	mustStatus(t, err, http.StatusMisdirectedRequest)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Primary != pc.BaseURL() {
		t.Fatalf("421 Primary = %q, want %q", ae.Primary, pc.BaseURL())
	}
	err = fc.CreateDB(ctx, "other")
	mustStatus(t, err, http.StatusMisdirectedRequest)
	_, err = fc.Prefer(ctx, "d", "R", [2]int{0, 1})
	mustStatus(t, err, http.StatusMisdirectedRequest)

	// A ReplicaSet pointed at the follower self-corrects via the 421.
	rs := client.NewReplicaSet(fc.BaseURL(), []string{fc.BaseURL()})
	if _, _, err := rs.Insert(ctx, "d", "R", row(t, 10, 0)); err != nil {
		t.Fatalf("ReplicaSet write via follower: %v", err)
	}
	if got := rs.Primary().BaseURL(); got != pc.BaseURL() {
		t.Fatalf("ReplicaSet adopted %q, want %q", got, pc.BaseURL())
	}
}

// seedClusterNoFD inserts a cluster assuming the relation and FD are
// set up separately (used where the FD would conflict with reuse).
func seedClusterNoFD(t *testing.T, c *client.Client, db string, k int) uint64 {
	t.Helper()
	if _, err := c.AddFD(context.Background(), db, "R", "K -> V"); err != nil {
		t.Fatal(err)
	}
	return seedCluster(t, c, db, k)
}

func TestMinVersionWaitsOnFollower(t *testing.T) {
	_, pc := boot(t, replOptions(t))
	ctx := context.Background()
	if err := pc.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.CreateRelation(ctx, "d", "R", client.IntAttr("K"), client.IntAttr("V")); err != nil {
		t.Fatal(err)
	}
	v := seedClusterNoFD(t, pc, "d", 1)
	_, fc := bootFollower(t, pc.BaseURL(), nil)
	if _, err := fc.CountRepairs(ctx, "d", prefcqa.Global, "R", client.MinVersion(v)); err != nil {
		t.Fatalf("converge: %v", err)
	}

	// A min_version nothing has written yet times out with 504 — the
	// follower parks the read rather than rejecting or lying.
	_, err := fc.Query(ctx, "d", prefcqa.Global, "R(1, 0)",
		client.MinVersion(v+100), client.Timeout(300*time.Millisecond))
	mustStatus(t, err, http.StatusGatewayTimeout)

	// Once the primary writes past it, the same read completes.
	done := make(chan error, 1)
	go func() {
		_, err := fc.Query(ctx, "d", prefcqa.Global, "R(1, 0)", client.MinVersion(v+3))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	seedCluster(t, pc, "d", 2)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("parked read failed after catch-up: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked read never completed after the primary wrote past its watermark")
	}
}

func TestPromotionContinuesHistoryAndFencesOldPrimary(t *testing.T) {
	psrv, pc := boot(t, replOptions(t))
	ctx := context.Background()
	if err := pc.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.CreateRelation(ctx, "d", "R", client.IntAttr("K"), client.IntAttr("V")); err != nil {
		t.Fatal(err)
	}
	v := seedClusterNoFD(t, pc, "d", 1)

	fsrv, fc := bootFollower(t, pc.BaseURL(), nil)
	if _, err := fc.CountRepairs(ctx, "d", prefcqa.Global, "R", client.MinVersion(v)); err != nil {
		t.Fatalf("converge: %v", err)
	}

	// Take the primary away, then promote the follower.
	shutCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	if err := psrv.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp, err := fc.Promote(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Promoted) != 1 || resp.Promoted[0] != "d" {
		t.Fatalf("promoted = %v, want [d]", resp.Promoted)
	}
	if resp.Epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", resp.Epoch)
	}
	// Promotion is idempotent.
	if again, err := fc.Promote(ctx); err != nil || again.Epoch != 2 {
		t.Fatalf("second promote = %+v, %v; want epoch 2", again, err)
	}

	// Writes resume at the exact next sequence of the replicated
	// history, and the old history is intact.
	_, wv, err := fc.Insert(ctx, "d", "R", row(t, 2, 0))
	if err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	if wv != v+1 {
		t.Fatalf("first post-promotion version = %d, want %d", wv, v+1)
	}
	if ans, err := fc.Query(ctx, "d", prefcqa.Global, "R(1, 0)"); err != nil || ans != prefcqa.True {
		t.Fatalf("pre-failover write lost: %v, %v", ans, err)
	}

	// The promoted server reports itself a primary now.
	st, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	repl := st.DBs["d"].Replication
	if repl == nil || repl.Role != "primary" || repl.Status != "promoted" {
		t.Fatalf("promoted stats = %+v, want role primary status promoted", repl)
	}
	if repl.Epoch != 2 {
		t.Fatalf("stats epoch = %d, want 2", repl.Epoch)
	}

	// Fencing: the promoted lineage refuses to serve a stream to an
	// epoch ahead of it (symmetric check), and — the critical
	// direction — a server still at epoch 1 refuses a follower that
	// has seen epoch 2.
	furl := strings.TrimPrefix(fc.BaseURL(), "http://")
	resp2, err := http.Get("http://" + furl + client.PathReplStream + "?db=d&from_seq=1&epoch=99")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("stream with future epoch = HTTP %d, want 409", resp2.StatusCode)
	}
	_ = fsrv
}

func TestAutoPromoteOnPrimarySilence(t *testing.T) {
	psrv, pc := boot(t, replOptions(t))
	ctx := context.Background()
	if err := pc.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.CreateRelation(ctx, "d", "R", client.IntAttr("K"), client.IntAttr("V")); err != nil {
		t.Fatal(err)
	}
	v := seedClusterNoFD(t, pc, "d", 1)

	_, fc := bootFollower(t, pc.BaseURL(), func(o *Options) {
		o.AutoPromote = 300 * time.Millisecond
	})
	if _, err := fc.CountRepairs(ctx, "d", prefcqa.Global, "R", client.MinVersion(v)); err != nil {
		t.Fatalf("converge: %v", err)
	}
	shutCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	if err := psrv.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	cancel()

	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, _, err := fc.Insert(ctx, "d", "R", row(t, 2, 0)); err == nil {
			break // auto-promotion happened; writes accepted
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never auto-promoted after primary silence")
		}
		time.Sleep(50 * time.Millisecond)
	}
	st, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if repl := st.DBs["d"].Replication; repl == nil || repl.Status != "promoted" {
		t.Fatalf("stats after auto-promote = %+v, want status promoted", repl)
	}
}

func TestStatsCarryWALAndReplication(t *testing.T) {
	_, pc := boot(t, replOptions(t))
	ctx := context.Background()
	if err := pc.CreateDB(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.CreateRelation(ctx, "d", "R", client.IntAttr("K"), client.IntAttr("V")); err != nil {
		t.Fatal(err)
	}
	v := seedClusterNoFD(t, pc, "d", 1)

	st, err := pc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ds := st.DBs["d"]
	if ds.WAL == nil {
		t.Fatal("durable database reported no WAL stats")
	}
	if ds.WAL.Seq != v {
		t.Errorf("wal.seq = %d, want %d", ds.WAL.Seq, v)
	}
	if ds.WAL.Epoch != 1 {
		t.Errorf("wal.epoch = %d, want 1", ds.WAL.Epoch)
	}
	if ds.WAL.Segments < 1 || ds.WAL.SegmentBytes <= 0 {
		t.Errorf("wal footprint = %d segments, %d bytes; want ≥1, >0", ds.WAL.Segments, ds.WAL.SegmentBytes)
	}
	if ds.WAL.Fsync != "group" {
		t.Errorf("wal.fsync = %q, want %q", ds.WAL.Fsync, "group")
	}
	if ds.Replication == nil || ds.Replication.Role != "primary" {
		t.Errorf("primary replication stats = %+v, want role primary", ds.Replication)
	}

	_, fc := bootFollower(t, pc.BaseURL(), nil)
	if _, err := fc.CountRepairs(ctx, "d", prefcqa.Global, "R", client.MinVersion(v)); err != nil {
		t.Fatalf("converge: %v", err)
	}
	fst, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fds := fst.DBs["d"]
	if fds.Replication == nil || fds.Replication.Role != "follower" {
		t.Fatalf("follower replication stats = %+v, want role follower", fds.Replication)
	}
	if fds.Replication.Primary != pc.BaseURL() {
		t.Errorf("follower primary = %q, want %q", fds.Replication.Primary, pc.BaseURL())
	}
	if fds.Replication.AppliedSeq != v {
		t.Errorf("follower applied_seq = %d, want %d", fds.Replication.AppliedSeq, v)
	}
	if s := fds.Replication.Status; s != "streaming" && s != "bootstrapping" {
		t.Errorf("follower status = %q, want streaming", s)
	}
	if fds.Replication.LastContactMS < 0 {
		t.Errorf("follower last_contact_ms = %d, want ≥ 0", fds.Replication.LastContactMS)
	}
}

// TestMinVersionOnUnlistedDatabase: a database registered on the
// follower that the primary does not list never gets a Follower, so a
// min_version read on it must not park to its deadline (504): once two
// discovery rounds have completed without attaching it, the read falls
// through to the 412 every unsatisfiable min_version gets — and a
// database the follower has never heard of is a 404.
func TestMinVersionOnUnlistedDatabase(t *testing.T) {
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != client.PathReplDBs {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(client.ReplDBsResponse{DBs: []string{}}) //nolint:errcheck // test stub
	}))
	defer primary.Close()
	fsrv, fc := bootFollower(t, primary.URL, nil)
	if _, _, err := fsrv.Replica("d"); err != nil { // registered, as recovery or a vanished primary database leaves it
		t.Fatal(err)
	}
	ctx := context.Background()
	start := time.Now()
	_, err := fc.Query(ctx, "d", prefcqa.Rep, "R(1)", client.MinVersion(5), client.Timeout(20*time.Second))
	mustStatus(t, err, http.StatusPreconditionFailed)
	_, err = fc.Query(ctx, "nosuch", prefcqa.Rep, "R(1)", client.MinVersion(5), client.Timeout(20*time.Second))
	mustStatus(t, err, http.StatusNotFound)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("two reads took %v at a 25 ms discovery interval: they waited for more than discovery rounds", d)
	}
}
