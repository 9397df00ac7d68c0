package prefcqa

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"prefcqa/internal/wal"
)

// captureReference is the checkpoint capture the log's encoder
// replaced, kept as the reference it is held to: every relation's rows
// rendered as wire cells and its dead IDs listed (encodeUniverse), its
// dependencies and a copy of its preference history. json.Marshal of
// it is what a checkpoint's payload must be, byte for byte.
func captureReference(db *DB) *wal.Checkpoint {
	db.mu.Lock()
	defer db.mu.Unlock()
	c := &wal.Checkpoint{Seq: db.WriteVersion(), Epoch: db.Epoch()}
	for _, r := range db.cat.rels {
		cr := wal.CheckpointRelation{
			Name:  r.name,
			Attrs: r.schema.WireAttrs(),
			Prefs: append([][2]TupleID(nil), r.prefs...),
		}
		cr.Rows, cr.Dead = encodeUniverse(r.head.Inst)
		for _, f := range r.head.FDs.All() {
			cr.FDs = append(cr.FDs, f.String())
		}
		c.Relations = append(c.Relations, cr)
	}
	return c
}

// heldSyncs replaces the log's fsync so that each fsync of a file
// whose name hold accepts announces itself on entered and waits until
// the test lets it through; every other fsync runs at once. A test
// defers letThrough, so that if it fails it releases the held fsync
// when it returns, before the clean-up closes its database.
type heldSyncs struct {
	entered chan string
	release chan struct{}
	open    chan struct{}
	once    sync.Once
}

func holdSyncs(t *testing.T, hold func(name string) bool) *heldSyncs {
	t.Helper()
	h := &heldSyncs{entered: make(chan string, 64), release: make(chan struct{}), open: make(chan struct{})}
	restore := wal.SetSyncFile(func(f *os.File) error {
		if hold(f.Name()) {
			h.entered <- f.Name()
			select {
			case <-h.release:
			case <-h.open:
			}
		}
		return f.Sync()
	})
	t.Cleanup(func() {
		h.letThrough()
		restore()
	})
	return h
}

// next releases the one held fsync.
func (h *heldSyncs) next() { h.release <- struct{}{} }

// letThrough releases the held fsync and every one to come.
func (h *heldSyncs) letThrough() { h.once.Do(func() { close(h.open) }) }

// await waits for the next held fsync to begin and returns its file.
func (h *heldSyncs) await(t *testing.T) string {
	t.Helper()
	select {
	case name := <-h.entered:
		return name
	case <-time.After(2 * time.Second):
		t.Fatal("no held fsync began within 2s")
		return ""
	}
}

// isCheckpointTmp matches the fsync of a checkpoint being written.
func isCheckpointTmp(name string) bool { return filepath.Base(name) == "checkpoint.tmp" }

// returnsWithin runs fn and fails the test if it has not returned
// after 2 s.
func returnsWithin(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not return within 2s while a checkpoint was being written", what)
	}
}

// TestCheckpointPayloadMatchesReference holds the pinned checkpoint's
// streamed payload to json.Marshal of the reference capture, on a
// relation with tombstones, names that need escaping, several FDs and
// preferences, beside an empty relation.
func TestCheckpointPayloadMatchesReference(t *testing.T) {
	db, r, _ := newDurDB(t)
	n, err := db.CreateRelation("N", NameAttr("A"), NameAttr("B"), IntAttr("C"))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddFD("A -> B"); err != nil {
		t.Fatal(err)
	}
	if err := n.AddFD("B -> C"); err != nil {
		t.Fatal(err)
	}
	names := []string{`it's`, `<b>&`, "a b", "\x00\x1f\\\"", "bad\xff", "é☃"}
	for i, a := range names {
		n.MustInsert(a, names[(i+1)%len(names)], int64(i-3))
		n.MustInsert(a, names[(i+2)%len(names)], int64(i))
	}
	if err := n.Prefer(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Delete(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		r.MustInsert(int64(i%7), int64(i%4))
	}
	if _, err := r.DeleteIDs([]TupleID{2, 5, 11}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("E", IntAttr("X")); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(captureReference(db))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := wal.WritePayload(&got, db.PinCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("streamed checkpoint payload differs from the reference:\n got %s\nwant %s", got.Bytes(), want)
	}
	captured, err := db.CaptureCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	var decoded wal.Checkpoint
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(captured, &decoded) {
		t.Fatalf("CaptureCheckpoint = %+v, want the reference decoded %+v", captured, &decoded)
	}
}

// probeDB builds the shape the write_mix workload reaches: 100 000
// two-tuple clusters under K -> V (200 000 tuples), 90 000 preferences
// and 19 000 churned IDs (deleted, then inserted again as new tuples),
// in a durable database that never checkpoints on its own.
func probeDB(t *testing.T) (*DB, *Relation, string) {
	t.Helper()
	const clusters, batch, churn = 100_000, 10_000, 19_000
	db, r, dir := newDurDB(t, WithSyncPolicy(SyncNever), WithCheckpointBytes(-1))
	rows := make([]Tuple, 0, 2*clusters)
	for k := 0; k < clusters; k++ {
		rows = append(rows, Tuple{Int(int64(k)), Int(0)}, Tuple{Int(int64(k)), Int(1)})
	}
	for i := 0; i < len(rows); i += batch {
		if _, err := r.InsertRows(rows[i : i+batch]); err != nil {
			t.Fatal(err)
		}
	}
	pairs := make([][2]TupleID, 90_000)
	for k := range pairs {
		pairs[k] = [2]TupleID{2 * k, 2*k + 1}
	}
	for i := 0; i < len(pairs); i += batch {
		if err := r.PreferPairs(pairs[i : i+batch]); err != nil {
			t.Fatal(err)
		}
	}
	dead := make([]TupleID, churn)
	again := make([]Tuple, churn)
	for i := range dead {
		dead[i] = 2*(clusters-churn+i) + 1
		again[i] = Tuple{Int(int64(clusters - churn + i)), Int(2)}
	}
	if _, err := r.DeleteIDs(dead); err != nil {
		t.Fatal(err)
	}
	if _, err := r.InsertRows(again); err != nil {
		t.Fatal(err)
	}
	return db, r, dir
}

// TestCheckpointAllocations: a checkpoint of the write_mix shape
// streams from the pinned version, so what it allocates is the copy of
// the preference history and its buffers, not a string per cell (the
// [][]string capture, json.Marshal and the framed copy allocated
// 657 037 objects and 52.8 MB here).
func TestCheckpointAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 100 000 clusters")
	}
	db, _, dir := probeDB(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("checkpoint allocates %d objects, %.2f MB, in %v", objects, float64(bytes)/(1<<20), took)
	if objects > 1000 || bytes > 4<<20 {
		t.Fatalf("checkpoint allocates %d objects and %.2f MB; want at most 1 000 and 4 MB", objects, float64(bytes)/(1<<20))
	}
	mirror := mirrorDB(t, db)
	recovered, err := Open(cloneDir(t, dir), WithSyncPolicy(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.WriteVersion() != db.WriteVersion() {
		t.Fatalf("recovered write version %d, want %d", recovered.WriteVersion(), db.WriteVersion())
	}
	rr, _ := recovered.Relation("R")
	mr, _ := mirror.Relation("R")
	if got, want := rr.Instance().NumIDs(), mr.Instance().NumIDs(); got != want {
		t.Fatalf("recovered %d IDs, want %d", got, want)
	}
	for _, q := range []string{"R(99999, 2)", "R(0, 0)", "EXISTS v . R(80999, v) AND v > 0"} {
		g, err := recovered.Query(Global, q)
		if err != nil {
			t.Fatal(err)
		}
		w, err := mirror.Query(Global, q)
		if err != nil {
			t.Fatal(err)
		}
		if g != w {
			t.Fatalf("%s: recovered %v, want %v", q, g, w)
		}
	}
}

// TestWritesDuringCheckpoint: the checkpoint writes with no lock held,
// so while its fsync is held every mutation and read returns, and the
// checkpoint, once it completes, recovers with the log written meanwhile
// to the same answers.
func TestWritesDuringCheckpoint(t *testing.T) {
	h := holdSyncs(t, isCheckpointTmp)
	defer h.letThrough()
	db, r, dir := newDurDB(t)
	for i := 0; i < 20; i++ {
		r.MustInsert(int64(i%5), int64(i%3))
	}
	if _, err := db.Query(Global, "R(0, 0)"); err != nil {
		t.Fatal(err)
	}
	ckpt := make(chan error, 1)
	go func() { ckpt <- db.Checkpoint() }()
	h.await(t)

	var id TupleID
	returnsWithin(t, "Insert", func() (err error) { id, err = r.Insert(int64(1), int64(7)); return err })
	returnsWithin(t, "Prefer", func() error { return r.Prefer(id, 1) })
	returnsWithin(t, "Delete", func() error { _, err := r.Delete(2); return err })
	returnsWithin(t, "Snapshot", func() error {
		s, err := db.Snapshot()
		if err == nil && s.WriteVersion() != db.WriteVersion() {
			t.Errorf("Snapshot at %d, the database is at %d", s.WriteVersion(), db.WriteVersion())
		}
		return err
	})
	select {
	case err := <-ckpt:
		t.Fatalf("Checkpoint returned before its fsync did (%v)", err)
	default:
	}
	h.letThrough()
	if err := <-ckpt; err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	mirror := mirrorDB(t, db)
	assertSameResults(t, "reopened", reopen(t, db, dir), mirror)
}

// TestCloseWaitsForCheckpoint: Close during an automatic checkpoint
// held in its fsync returns only after the checkpoint is installed,
// and leaves no checkpoint goroutine behind.
func TestCloseWaitsForCheckpoint(t *testing.T) {
	h := holdSyncs(t, isCheckpointTmp)
	defer h.letThrough()
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir, WithCheckpointBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("R", IntAttr("K"), IntAttr("V")); err != nil {
		t.Fatal(err) // its commit starts the automatic checkpoint
	}
	h.await(t)
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the checkpoint was being written", err)
	default:
	}
	h.letThrough()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return within 2s of the checkpoint's fsync")
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint-0000000000000001.ckpt")); err != nil {
		t.Fatalf("the checkpoint Close waited for is not installed: %v", err)
	}
	// The goroutine releases ckptBusy as its last action: once Close
	// has it, all that is left of the goroutine is its return.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "prefcqa.(*DB).checkpoint") && !strings.Contains(stacks, "prefcqa.(*DB).commit.func") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a checkpoint goroutine outlived Close:\n%s", stacks)
		}
	}
}

// TestCheckpointCrashPoints copies the directory at the two points
// where a crash splits a checkpoint — after the rotation to the new
// segment but before the checkpoint's rename, and after the rename but
// before the files it subsumes are removed — with writes logged after
// the cut, and recovers each copy to the same answers.
func TestCheckpointCrashPoints(t *testing.T) {
	for _, point := range []string{"before the rename", "before the deletions"} {
		t.Run(point, func(t *testing.T) {
			var dir string
			// The checkpoint file's fsync, then the directory's right
			// after the rename (the log holds its lock there, so the
			// writes go in while the first is held).
			h := holdSyncs(t, func(name string) bool { return isCheckpointTmp(name) || name == dir })
			defer h.letThrough()
			db, r, d := newDurDB(t, WithSyncPolicy(SyncNever), WithCheckpointBytes(-1))
			dir = d
			for i := 0; i < 30; i++ {
				r.MustInsert(int64(i%6), int64(i%4))
			}
			if err := r.Prefer(0, 6); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Delete(3); err != nil {
				t.Fatal(err)
			}
			ckpt := make(chan error, 1)
			go func() { ckpt <- db.Checkpoint() }()
			h.await(t)
			r.MustInsert(int64(40), int64(1))
			if _, err := r.Delete(7); err != nil {
				t.Fatal(err)
			}
			if point == "before the deletions" {
				h.next()
				if name := h.await(t); name != dir {
					t.Fatalf("held fsync of %s, want the directory's", name)
				}
			}
			crashed := cloneDir(t, dir)
			segs, _ := filepath.Glob(filepath.Join(crashed, "wal-*.log"))
			ckpts, _ := filepath.Glob(filepath.Join(crashed, "checkpoint-*.ckpt"))
			if len(segs) != 2 || (point == "before the rename") != (len(ckpts) == 0) {
				t.Fatalf("crash image holds segments %v and checkpoints %v", segs, ckpts)
			}
			h.letThrough()
			if err := <-ckpt; err != nil {
				t.Fatal(err)
			}
			mirror := mirrorDB(t, db)
			got, err := Open(crashed, WithSyncPolicy(SyncNever))
			if err != nil {
				t.Fatalf("recovering the crash image: %v", err)
			}
			defer got.Close()
			if got.WriteVersion() != db.WriteVersion() {
				t.Fatalf("recovered write version %d, want %d", got.WriteVersion(), db.WriteVersion())
			}
			assertSameResults(t, point, got, mirror)
			// The recovered log goes on: a write, a checkpoint and a
			// reopen keep the answers.
			gr, _ := got.Relation("R")
			gr.MustInsert(int64(41), int64(2))
			mr, _ := mirror.Relation("R")
			mr.MustInsert(int64(41), int64(2))
			if err := got.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, point+", checkpointed again", reopen(t, got, crashed, WithSyncPolicy(SyncNever)), mirror)
		})
	}
}
