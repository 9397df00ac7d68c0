package prefcqa

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"prefcqa/internal/wal"
)

// seedPrimary builds a durable primary with a small conflicted
// relation and returns it plus its full record history.
func seedPrimary(t *testing.T, dir string) (*DB, []wal.Record) {
	t.Helper()
	db, err := Open(dir, WithSyncPolicy(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.CreateRelation("R", IntAttr("K"), IntAttr("V"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddFD("K -> V"); err != nil {
		t.Fatal(err)
	}
	a := r.MustInsert(1, 0)
	b := r.MustInsert(1, 1)
	if err := r.Prefer(a, b); err != nil {
		t.Fatal(err)
	}
	recs, err := db.ReplReadFrom(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return db, recs
}

func TestReplApplyStrictSequenceAndFencing(t *testing.T) {
	base := t.TempDir()
	primary, recs := seedPrimary(t, filepath.Join(base, "p"))
	defer primary.Close()

	follower, err := Open(filepath.Join(base, "f"), WithSyncPolicy(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	follower.SetReadOnly(true)

	// A public mutation on a follower is refused outright.
	if _, err := follower.CreateRelation("S", IntAttr("X")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("CreateRelation on read-only replica: err = %v, want ErrReadOnly", err)
	}

	// Out-of-order replication is refused before anything applies.
	if err := follower.ReplApply(recs[1]); err == nil {
		t.Fatal("ReplApply skipping seq 1 did not fail")
	}
	for _, rec := range recs {
		if err := follower.ReplApply(rec); err != nil {
			t.Fatalf("ReplApply(seq %d): %v", rec.Seq, err)
		}
	}
	if got, want := follower.WriteVersion(), primary.WriteVersion(); got != want {
		t.Fatalf("follower version = %d, primary = %d", got, want)
	}
	// Replaying an already-applied record is refused too.
	if err := follower.ReplApply(recs[len(recs)-1]); err == nil {
		t.Fatal("ReplApply of an already-applied record did not fail")
	}

	// The replicated state answers exactly like the primary.
	for _, f := range []Family{Rep, Local, SemiGlobal, Global, Common} {
		p, err := primary.Query(f, "R(1, 0)")
		if err != nil {
			t.Fatal(err)
		}
		g, err := follower.Query(f, "R(1, 0)")
		if err != nil {
			t.Fatal(err)
		}
		if p != g {
			t.Fatalf("family %v: follower answered %v, primary %v", f, g, p)
		}
	}

	// A record from an older epoch is fenced.
	stale := wal.Record{Seq: follower.WriteVersion() + 1, Epoch: 0, Op: wal.OpInsert, Rel: "R", Rows: [][]string{{"2", "0"}}}
	if _, err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := follower.ReplApply(stale); err == nil {
		t.Fatal("ReplApply with epoch behind the promoted fence did not fail")
	}
}

// TestReplApplyPreferBatch: a preference batch ships as one record,
// and a follower replaying it answers like a database that was given
// the same pairs one by one.
func TestReplApplyPreferBatch(t *testing.T) {
	primary, r, _ := newDurDB(t, WithSyncPolicy(SyncNever))
	ref, batch := preferBatchFixture(t, r)
	recs, err := primary.ReplReadFrom(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last := recs[len(recs)-1]; last.Op != wal.OpPrefer || len(last.Pairs) != len(batch) {
		t.Fatalf("last record is %v with %d pairs, want one prefer record carrying all %d", last.Op, len(last.Pairs), len(batch))
	}
	follower, err := Open(filepath.Join(t.TempDir(), "f"), WithSyncPolicy(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	follower.SetReadOnly(true)
	for _, rec := range recs {
		if err := follower.ReplApply(rec); err != nil {
			t.Fatalf("ReplApply(seq %d): %v", rec.Seq, err)
		}
	}
	if got, want := follower.WriteVersion(), primary.WriteVersion(); got != want {
		t.Fatalf("follower version = %d, primary = %d", got, want)
	}
	assertSameResults(t, "batched prefer, replicated", follower, ref)
}

func TestReplBootstrapPromoteAndDurableFence(t *testing.T) {
	base := t.TempDir()
	primary, _ := seedPrimary(t, filepath.Join(base, "p"))
	defer primary.Close()
	ckpt, err := primary.CaptureCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	fdir := filepath.Join(base, "f")
	follower, err := Open(fdir, WithSyncPolicy(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	follower.SetReadOnly(true)
	if err := follower.ReplBootstrap(ckpt); err != nil {
		t.Fatal(err)
	}
	if got, want := follower.WriteVersion(), primary.WriteVersion(); got != want {
		t.Fatalf("bootstrapped version = %d, want %d", got, want)
	}
	if n, err := follower.CountRepairs(Global, "R"); err != nil || n != 1 {
		t.Fatalf("CountRepairs on bootstrapped replica = %d, %v; want 1", n, err)
	}
	// Bootstrap is strictly for empty replicas.
	if err := follower.ReplBootstrap(ckpt); err == nil {
		t.Fatal("ReplBootstrap on a non-empty replica did not fail")
	}

	// Promotion: writes resume at the exact next sequence, epoch 2.
	seqBefore := follower.WriteVersion()
	epoch, err := follower.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}
	r, ok := follower.Relation("R")
	if !ok {
		t.Fatal("relation R missing after bootstrap")
	}
	r.MustInsert(2, 0)
	if got := follower.WriteVersion(); got != seqBefore+1 {
		t.Fatalf("version after first post-promotion write = %d, want %d", got, seqBefore+1)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// The fence is durable: a restart stays at epoch 2 and still
	// refuses the old lineage.
	re, err := Open(fdir, WithSyncPolicy(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Epoch(); got != 2 {
		t.Fatalf("epoch after restart = %d, want 2", got)
	}
	stale := wal.Record{Seq: re.WriteVersion() + 1, Epoch: 1, Op: wal.OpInsert, Rel: "R", Rows: [][]string{{"3", "0"}}}
	if err := re.ReplApply(stale); err == nil {
		t.Fatal("restarted promoted replica accepted a record from the fenced epoch")
	}
	if n, err := re.CountRepairs(Global, "R"); err != nil || n != 1 {
		t.Fatalf("CountRepairs after restart = %d, %v; want 1", n, err)
	}
}

// TestReplApplyForksPublishedVersions: replication applies while a
// snapshot is pinned must not mutate the pinned version in place — the
// same immutability contract local writes honor.
func TestReplApplyForksPublishedVersions(t *testing.T) {
	base := t.TempDir()
	primary, recs := seedPrimary(t, filepath.Join(base, "p"))
	defer primary.Close()

	follower := New() // in-memory replica: applies without a local log
	follower.SetReadOnly(true)
	// Apply the schema + first insert, pin a snapshot, then stream the
	// rest and verify the pinned view never moves.
	for _, rec := range recs[:3] {
		if err := follower.ReplApply(rec); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := follower.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	instBefore, ok := snap.Instance("R")
	if !ok {
		t.Fatal("pinned snapshot lost relation R")
	}
	lenBefore := instBefore.Len()
	for _, rec := range recs[3:] {
		if err := follower.ReplApply(rec); err != nil {
			t.Fatal(err)
		}
	}
	instAfter, _ := snap.Instance("R")
	if instAfter.Len() != lenBefore {
		t.Fatalf("pinned snapshot changed under replication: %d tuples, was %d", instAfter.Len(), lenBefore)
	}
	fresh, err := follower.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if inst, _ := fresh.Instance("R"); inst.Len() <= lenBefore {
		t.Fatalf("fresh snapshot has %d tuples, want more than the pinned %d", inst.Len(), lenBefore)
	}
}

// TestSnapshotDuringReplicatedCreates is the -race regression for the
// follower's read path: the replication goroutine applies relation
// creations (appending to the registry under the snapshot gate) while
// readers snapshot. Snapshot must read the registry under the gate.
func TestSnapshotDuringReplicatedCreates(t *testing.T) {
	db := New()
	db.SetReadOnly(true)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := db.Snapshot(); err != nil {
				done <- err
				return
			}
		}
	}()
	const creates = 200
	for i := 1; i <= creates; i++ {
		rec := wal.Record{
			Seq: uint64(i), Epoch: 1, Op: wal.OpCreate, Rel: fmt.Sprintf("R%d", i),
			Attrs: []WireAttr{{Name: "K", Kind: "int"}},
		}
		if err := db.ReplApply(rec); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(snap.Relations()); got != creates {
		t.Fatalf("snapshot sees %d relations, want %d", got, creates)
	}
}
