package prefcqa

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"prefcqa/internal/wal"
)

// TestOpenReplayAllocations: recovery replays the log tail into the
// writer's state and publishes one version at the end, not one per
// record, since nothing reads while Open loads. It counts the objects
// Open allocates per replayed one-row insert record, over 20 000 of
// them: 24.01 (decoding the record is most of it), against 26.01 when
// every record published a version (linux/amd64, Go 1.24).
func TestOpenReplayAllocations(t *testing.T) {
	const records = 20_000
	dir := filepath.Join(t.TempDir(), "db")
	log, _, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs := []wal.Record{
		{Op: wal.OpCreate, Rel: "R", Attrs: []WireAttr{{Name: "K", Kind: "int"}, {Name: "V", Kind: "int"}}},
		{Op: wal.OpFD, Rel: "R", FD: "K -> V"},
	}
	for _, rec := range recs {
		if _, err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < records; i++ {
		row := []string{strconv.Itoa(i / 2), strconv.Itoa(i % 2)}
		if _, err := log.Append(wal.Record{Op: wal.OpInsert, Rel: "R", Rows: [][]string{row}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := Open(dir, WithSyncPolicy(SyncNever))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.WriteVersion(); got != records+2 {
		t.Fatalf("recovered write version %d, want %d", got, records+2)
	}
	perRecord := float64(after.Mallocs-before.Mallocs) / records
	t.Logf("Open allocates %.2f objects, %.0f B per replayed record", perRecord, float64(after.TotalAlloc-before.TotalAlloc)/records)
	if perRecord > 25 {
		t.Fatalf("Open allocates %.2f objects per replayed record, want at most 25", perRecord)
	}
}

// fixtureWrites makes the writes of testdata/checkpoint-fixture: two
// relations, names that need escaping, tombstones and preferences,
// then checkpoint, then a tail of writes after it (an insert batch, a
// delete, preferences, a new relation and a dependency added to it).
func fixtureWrites(t *testing.T, db *DB, checkpoint func() error) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := db.CreateRelation("Mgr", NameAttr("Name"), NameAttr("Dept"), IntAttr("Salary"))
	must(err)
	must(mgr.AddFD("Dept -> Name, Salary"))
	must(mgr.AddFD("Name -> Dept, Salary"))
	_, err = mgr.InsertRows([]Tuple{
		{Name("Mary"), Name("R&D"), Int(40)},
		{Name("John"), Name("R&D"), Int(10)},
		{Name("O'Neil"), Name("<IT>"), Int(30)},
		{Name(`Zoë "Z"`), Name("PR"), Int(-20)},
		{Name("Mary"), Name("<IT>"), Int(25)},
		{Name(`back\slash`), Name("PR"), Int(5)},
	})
	must(err)
	must(mgr.PreferPairs([][2]TupleID{{0, 1}, {2, 4}}))
	_, err = mgr.Delete(5)
	must(err)
	kv, err := db.CreateRelation("KV", IntAttr("K"), IntAttr("V"))
	must(err)
	must(kv.AddFD("K -> V"))
	for k := 0; k < 20; k++ {
		_, err := kv.InsertRows([]Tuple{{Int(int64(k)), Int(0)}, {Int(int64(k)), Int(1)}})
		must(err)
		if k%3 == 0 {
			must(kv.Prefer(TupleID(2*k+1), TupleID(2*k)))
		}
	}
	_, err = kv.DeleteIDs([]TupleID{4, 9, 30})
	must(err)
	must(checkpoint())

	_, err = mgr.InsertRows([]Tuple{{Name("Ann"), Name("PR"), Int(50)}, {Name("it's"), Name("Ops"), Int(1)}})
	must(err)
	must(mgr.Prefer(6, 3))
	_, err = kv.Delete(12)
	must(err)
	must(kv.Prefer(15, 14))
	x, err := db.CreateRelation("X", NameAttr("A"), IntAttr("B"))
	must(err)
	_, err = x.InsertRows([]Tuple{{Name("a"), Int(1)}, {Name("a"), Int(2)}, {Name("b"), Int(3)}})
	must(err)
	must(x.AddFD("A -> B"))
}

// TestRecoversParentCheckpoint: testdata/checkpoint-fixture holds a
// checkpoint and a log tail written by fixtureWrites with the encoder
// this one replaced (json.Marshal of the [][]string capture, one
// framed copy). The state the checkpoint alone recovers streams back
// to its very bytes; the whole directory recovers to what the same
// writes build in memory, and checkpoints and recovers again with the
// streaming encoder.
func TestRecoversParentCheckpoint(t *testing.T) {
	ckpts, _ := filepath.Glob(filepath.Join("testdata", "checkpoint-fixture", "checkpoint-*.ckpt"))
	if len(ckpts) != 1 {
		t.Fatalf("the fixture holds checkpoints %v, want one", ckpts)
	}
	file, err := os.ReadFile(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	only := filepath.Join(t.TempDir(), "db")
	if err := os.MkdirAll(only, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(only, filepath.Base(ckpts[0])), file, 0o644); err != nil {
		t.Fatal(err)
	}
	at, err := Open(only, WithSyncPolicy(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := wal.WritePayload(&payload, at.PinCheckpoint()); err != nil {
		t.Fatal(err)
	}
	at.Close()
	if !bytes.Equal(payload.Bytes(), file[8:]) {
		t.Fatalf("the recovered checkpoint streams to\n%s\nwant the fixture's\n%s", payload.Bytes(), file[8:])
	}

	want := New()
	fixtureWrites(t, want, func() error { return nil })
	dir := cloneDir(t, filepath.Join("testdata", "checkpoint-fixture"))
	for _, pattern := range []string{"checkpoint-*.ckpt", "wal-*.log"} {
		if m, _ := filepath.Glob(filepath.Join(dir, pattern)); len(m) == 0 {
			t.Fatalf("the fixture holds no %s", pattern)
		}
	}
	db, err := Open(dir, WithSyncPolicy(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if db.WriteVersion() != want.WriteVersion() {
		t.Fatalf("recovered write version %d, want %d", db.WriteVersion(), want.WriteVersion())
	}
	assertSameResults(t, "parent fixture", db, want)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "parent fixture, checkpointed again", reopen(t, db, dir, WithSyncPolicy(SyncNever)), want)
}
