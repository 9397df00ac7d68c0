package replication_test

import (
	"context"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"prefcqa"
	"prefcqa/internal/replication"
	"prefcqa/internal/server"
)

// drainBehind seeds a follower from a primary holding one relation,
// lets the primary run n single-row inserts ahead, then runs the
// follower against the primary's real stream endpoint until it has
// caught up. It returns the bytes the whole process allocated during
// the drain — primary read path, stream, follower apply.
func drainBehind(t *testing.T, n int) uint64 {
	t.Helper()
	srv := server.New(server.Options{
		DataDir:   t.TempDir(),
		DBOptions: []prefcqa.Option{prefcqa.WithSyncPolicy(prefcqa.SyncNever), prefcqa.WithCheckpointBytes(-1)},
	})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	primary, err := srv.CreateDB("d")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := primary.CreateRelation("r", prefcqa.IntAttr("A"))
	if err != nil {
		t.Fatal(err)
	}
	image, err := primary.CaptureCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	local := prefcqa.New()
	local.SetReadOnly(true)
	if err := local.ReplBootstrap(image); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rel.MustInsert(i)
	}

	f := replication.NewFollower("d", local, new(sync.RWMutex), replication.Config{Primary: ts.URL})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	if err := f.WaitVersion(ctx, primary.WriteVersion()); err != nil {
		t.Fatalf("follower %d records behind did not catch up: %v (applied %d of %d)", n, err, f.AppliedSeq(), primary.WriteVersion())
	}
	runtime.ReadMemStats(&after)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestCatchUpDrainsLinearly: the work to drain a backlog must grow with
// the backlog, not with backlog × segment length. When every 256-record
// batch re-read and re-decoded the primary's whole segment, the
// allocation per drained record quadrupled from 5000 to 20000 records
// behind (and 20000 cost gigabytes); through the offset index it is
// flat. Allocation, not time, is measured because it does not depend
// on the machine or on -race.
func TestCatchUpDrainsLinearly(t *testing.T) {
	const small, large = 5000, 20000
	perRecordSmall := float64(drainBehind(t, small)) / small
	perRecordLarge := float64(drainBehind(t, large)) / large
	t.Logf("allocated per drained record: %.0f B at %d behind, %.0f B at %d behind", perRecordSmall, small, perRecordLarge, large)
	if perRecordLarge > 2*perRecordSmall {
		t.Fatalf("catch-up is superlinear: %.0f B per record at %d behind, %.0f B at %d behind", perRecordLarge, large, perRecordSmall, small)
	}
}
