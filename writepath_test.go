package prefcqa

import (
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"prefcqa/internal/wal"
)

// TestDeleteIDsOneRecord: a delete batch is one mutation — one
// write-version step and one log record carrying the live IDs once
// each, in request order — whatever dead, repeated or never-assigned
// IDs the request names beside them; a batch with nothing live changes
// nothing; and the multi-ID record recovers to the state one Delete
// per ID builds.
func TestDeleteIDsOneRecord(t *testing.T) {
	db, r, dir := newDurDB(t, WithSyncPolicy(SyncAlways))
	var ids []TupleID
	for k := 0; k < 4; k++ {
		ids = append(ids, r.MustInsert(k, 0), r.MustInsert(k, 1))
	}
	if err := r.PreferPairs([][2]TupleID{{ids[0], ids[1]}, {ids[2], ids[3]}, {ids[4], ids[5]}}); err != nil {
		t.Fatal(err)
	}
	if ok, err := r.Delete(ids[7]); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	ref := mirrorDB(t, db)

	before := db.WriteVersion()
	live := []TupleID{ids[5], ids[0], ids[2]}
	n, err := r.DeleteIDs([]TupleID{ids[5], ids[7], ids[0], ids[5], 99, -1, ids[2], ids[0]})
	if err != nil || n != len(live) {
		t.Fatalf("DeleteIDs = %d, %v; want %d live", n, err, len(live))
	}
	if got := db.WriteVersion(); got != before+1 {
		t.Fatalf("write-version %d -> %d for one batch of %d live IDs, want one step", before, got, len(live))
	}
	recs, err := db.ReplReadFrom(before+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Op != wal.OpDelete || !slices.Equal(recs[0].IDs, live) {
		t.Fatalf("log tail after the batch is %+v, want one delete record with IDs %v", recs, live)
	}
	if n, err := r.DeleteIDs([]TupleID{ids[5], 99}); err != nil || n != 0 || db.WriteVersion() != before+1 {
		t.Fatalf("a batch with nothing live: %d deleted, %v, write-version %d (want 0, nil, %d)", n, err, db.WriteVersion(), before+1)
	}

	rr, _ := ref.Relation("R")
	refBefore := ref.WriteVersion()
	for _, id := range live {
		if ok, err := rr.Delete(id); err != nil || !ok {
			t.Fatalf("reference Delete(%d) = %v, %v", id, ok, err)
		}
	}
	if n, err := rr.DeleteIDs(live); err != nil || n != 0 || ref.WriteVersion() != refBefore+uint64(len(live)) {
		t.Fatalf("in memory: re-deleting moved something (%d, %v, write-version %d)", n, err, ref.WriteVersion())
	}
	assertSameResults(t, "batched delete", db, ref)
	crashed, err := Open(cloneDir(t, dir))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer crashed.Close()
	assertSameResults(t, "batched delete, recovered", crashed, ref)
}

// writeLog writes a history straight into a fresh log directory, the
// way a build that logged it would have, and returns the directory.
func writeLog(t *testing.T, recs []wal.Record) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	log, _, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// replayHistory is what the shape tests grow: six two-tuple clusters
// under K -> V with four of them oriented.
func replayHistory() []wal.Record {
	recs := []wal.Record{
		{Op: wal.OpCreate, Rel: "R", Attrs: []WireAttr{{Name: "K", Kind: "int"}, {Name: "V", Kind: "int"}}},
		{Op: wal.OpFD, Rel: "R", FD: "K -> V"},
	}
	for k := 0; k < 6; k++ {
		recs = append(recs, wal.Record{Op: wal.OpInsert, Rel: "R", Rows: [][]string{{strconv.Itoa(k), "0"}, {strconv.Itoa(k), "1"}}})
	}
	return append(recs, wal.Record{Op: wal.OpPrefer, Rel: "R", Pairs: [][2]int{{0, 1}, {3, 2}, {4, 5}, {7, 6}}})
}

// TestDeleteRecordShapesRecoverAlike: one history whose deletes were
// logged as N one-ID records — the shape every log written before
// DeleteIDs has — and as one N-ID record recovers to the same tuple
// IDs, liveness, preferences and answers under all five families, and
// a follower fed either shape converges on it.
func TestDeleteRecordShapesRecoverAlike(t *testing.T) {
	doomed := []int{1, 2, 9, 4}
	perID, batched := replayHistory(), replayHistory()
	for _, id := range doomed {
		perID = append(perID, wal.Record{Op: wal.OpDelete, Rel: "R", IDs: []int{id}})
	}
	batched = append(batched, wal.Record{Op: wal.OpDelete, Rel: "R", IDs: doomed})

	open := func(recs []wal.Record) (*DB, *DB) {
		db, err := Open(writeLog(t, recs), WithSyncPolicy(SyncNever))
		if err != nil {
			t.Fatalf("recovering a %d-record history: %v", len(recs), err)
		}
		t.Cleanup(func() { db.Close() })
		if got := db.WriteVersion(); got != uint64(len(recs)) {
			t.Fatalf("recovered write-version %d, want %d", got, len(recs))
		}
		shipped, err := db.ReplReadFrom(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		follower := New()
		follower.SetReadOnly(true)
		for _, rec := range shipped {
			if err := follower.ReplApply(rec); err != nil {
				t.Fatalf("ReplApply(seq %d): %v", rec.Seq, err)
			}
		}
		return db, follower
	}
	a, fa := open(perID)
	b, fb := open(batched)
	assertSameResults(t, "N one-ID records vs one N-ID record", b, a)
	assertSameResults(t, "follower of the per-ID log", fa, a)
	assertSameResults(t, "follower of the batched log", fb, a)
	for _, db := range []*DB{a, b, fa, fb} {
		r, _ := db.Relation("R")
		r.mu.Lock()
		prefs := slices.Clone(r.prefs)
		r.mu.Unlock()
		if want := [][2]TupleID{{0, 1}, {3, 2}, {4, 5}, {7, 6}}; !slices.Equal(prefs, want) {
			t.Fatalf("recorded preferences %v, want %v", prefs, want)
		}
		// Live after the deletes: (0,0), (1,1), (2,1), (3,0) ≺ (3,1),
		// (4,0) and the unoriented pair (5,0), (5,1).
		for _, f := range allFamilies {
			oriented := True // (3,1) wins wherever the priority counts
			if f == Rep {
				oriented = Undetermined
			}
			for q, want := range map[string]Answer{
				"R(0, 0) AND R(1, 1) AND R(2, 1) AND R(4, 0)": True,
				"R(0, 1) OR R(1, 0) OR R(2, 0) OR R(4, 1)":    False,
				"R(3, 1)":                      oriented,
				"R(5, 0)":                      Undetermined,
				"EXISTS v . R(5, v)":           True,
				"EXISTS k . R(k, 0) AND k > 4": Undetermined,
			} {
				if got, err := db.Query(f, q); err != nil || got != want {
					t.Fatalf("%v: %s = %v, %v; want %v", f, q, got, err, want)
				}
			}
		}
	}
}

// TestStrictReplay: the log only holds mutations that applied, so a
// record that does not apply exactly as logged — a duplicate insert, a
// delete of a dead or twice-named tuple, a duplicate preference, a row
// of the wrong arity or kind — is a loud error from recovery and from
// a follower's apply, never a silent skip.
func TestStrictReplay(t *testing.T) {
	for name, bad := range map[string]wal.Record{
		"duplicate insert":        {Op: wal.OpInsert, Rel: "R", Rows: [][]string{{"0", "0"}}},
		"duplicate within insert": {Op: wal.OpInsert, Rel: "R", Rows: [][]string{{"9", "9"}, {"9", "9"}}},
		"dead delete":             {Op: wal.OpDelete, Rel: "R", IDs: []int{11}},
		"unassigned delete":       {Op: wal.OpDelete, Rel: "R", IDs: []int{400}},
		"ID twice in one delete":  {Op: wal.OpDelete, Rel: "R", IDs: []int{3, 3}},
		"duplicate preference":    {Op: wal.OpPrefer, Rel: "R", Pairs: [][2]int{{0, 1}}},
		"preference on the dead":  {Op: wal.OpPrefer, Rel: "R", Pairs: [][2]int{{10, 11}}},
		"short row":               {Op: wal.OpInsert, Rel: "R", Rows: [][]string{{"9"}}},
		"long row":                {Op: wal.OpInsert, Rel: "R", Rows: [][]string{{"9", "9", "9"}}},
		"cell of the wrong kind":  {Op: wal.OpInsert, Rel: "R", Rows: [][]string{{"9", "'nine'"}}},
		"relation twice":          {Op: wal.OpCreate, Rel: "R", Attrs: []WireAttr{{Name: "K", Kind: "int"}}},
		"unknown kind":            {Op: wal.OpCreate, Rel: "S", Attrs: []WireAttr{{Name: "K", Kind: "float"}}},
		"unknown relation":        {Op: wal.OpDelete, Rel: "S", IDs: []int{0}},
	} {
		good := append(replayHistory(), wal.Record{Op: wal.OpDelete, Rel: "R", IDs: []int{11}})
		if db, err := Open(writeLog(t, append(good, bad)), WithSyncPolicy(SyncNever)); err == nil {
			db.Close()
			t.Errorf("%s: recovery accepted the log", name)
		} else if at := fmt.Sprintf("record %d:", len(good)+1); !strings.Contains(err.Error(), at) {
			t.Errorf("%s: recovery failed without naming %s %v", name, at, err)
		}
		follower := New()
		follower.SetReadOnly(true)
		for i, rec := range good {
			rec.Seq = uint64(i + 1)
			if err := follower.ReplApply(rec); err != nil {
				t.Fatalf("ReplApply(seq %d): %v", rec.Seq, err)
			}
		}
		if _, err := follower.Snapshot(); err != nil { // a published version: the apply below must fork it
			t.Fatal(err)
		}
		bad.Seq = uint64(len(good) + 1)
		if err := follower.ReplApply(bad); err == nil {
			t.Errorf("%s: a follower applied the record", name)
		}
	}
}
