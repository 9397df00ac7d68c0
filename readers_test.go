package prefcqa_test

import (
	"testing"
	"time"

	"prefcqa"
)

// TestReadsUnderHeldWriter: on a built database a read is one atomic
// load of the published version, so Snapshot and Query return while a
// writer holds the writer mutex — also the read right after a write,
// which finds the write's version published. When the reader built
// the state a writer left pending, under the snapshot gate a writer
// held for its whole mutation, such a read waited for the writer.
func TestReadsUnderHeldWriter(t *testing.T) {
	db := prefcqa.New()
	r, err := db.CreateRelation("R", prefcqa.IntAttr("K"), prefcqa.IntAttr("V"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddFD("K -> V"); err != nil {
		t.Fatal(err)
	}
	a := r.MustInsert(1, 0)
	b := r.MustInsert(1, 1)
	if _, err := db.Query(prefcqa.Global, "R(1, 0)"); err != nil {
		t.Fatal(err)
	}
	if err := r.Prefer(a, b); err != nil {
		t.Fatal(err)
	}
	want := db.WriteVersion()
	release := prefcqa.HoldWriter(db)
	defer release()
	type read struct {
		wv  uint64
		ans prefcqa.Answer
		err error
	}
	done := make(chan read, 1)
	go func() {
		var rd read
		snap, err := db.Snapshot()
		if rd.err = err; err == nil {
			rd.wv = snap.WriteVersion()
			rd.ans, rd.err = db.Query(prefcqa.Global, "R(1, 0)")
		}
		done <- rd
	}()
	select {
	case rd := <-done:
		if rd.err != nil {
			t.Fatal(rd.err)
		}
		if rd.wv != want || rd.ans != prefcqa.True {
			t.Fatalf("read under the held writer: write-version %d, R(1, 0) = %v; want %d, true (the Prefer is published)", rd.wv, rd.ans, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Snapshot and Query did not return within 2 s while a writer held the writer mutex")
	}
}
