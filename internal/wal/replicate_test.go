package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// rec builds an insert record whose single cell encodes seq, so a
// reader can verify it got exactly the record the position claims.
func rec(seq uint64) Record {
	return Record{Op: OpInsert, Rel: "r", Rows: [][]string{{strconv.FormatUint(seq, 10)}}}
}

func TestReadFromRanges(t *testing.T) {
	l, _, _ := mustOpen(t, t.TempDir(), Options{Policy: SyncNever})
	defer l.Close()
	const n = 20
	for i := uint64(1); i <= n; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, from := range []uint64{1, 7, n} {
		recs, err := l.ReadFrom(from, 0)
		if err != nil {
			t.Fatalf("ReadFrom(%d): %v", from, err)
		}
		if len(recs) != int(n-from+1) {
			t.Fatalf("ReadFrom(%d) returned %d records, want %d", from, len(recs), n-from+1)
		}
		for i, r := range recs {
			if want := from + uint64(i); r.Seq != want || r.Rows[0][0] != strconv.FormatUint(want, 10) {
				t.Fatalf("ReadFrom(%d)[%d] = seq %d rows %v, want seq %d", from, i, r.Seq, r.Rows, want)
			}
		}
	}
	// max caps the batch.
	if recs, err := l.ReadFrom(1, 5); err != nil || len(recs) != 5 || recs[4].Seq != 5 {
		t.Fatalf("ReadFrom(1, 5) = %d records, err %v", len(recs), err)
	}
	// Past the head: empty, not an error (the caller long-polls).
	if recs, err := l.ReadFrom(n+1, 0); err != nil || len(recs) != 0 {
		t.Fatalf("ReadFrom(past head) = %v, %v; want empty", recs, err)
	}
	if _, err := l.ReadFrom(0, 0); err == nil {
		t.Fatal("ReadFrom(0) did not reject; sequences start at 1")
	}
}

func TestReadFromCompacted(t *testing.T) {
	l, _, _ := mustOpen(t, t.TempDir(), Options{Policy: SyncNever})
	defer l.Close()
	for i := uint64(1); i <= 10; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteCheckpoint(&Checkpoint{Seq: 10}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(11); i <= 14; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// At or below the checkpoint horizon the history is gone.
	for _, from := range []uint64{1, 10} {
		if _, err := l.ReadFrom(from, 0); !errors.Is(err, ErrCompacted) {
			t.Fatalf("ReadFrom(%d) after checkpoint at 10: err = %v, want ErrCompacted", from, err)
		}
	}
	recs, err := l.ReadFrom(11, 0)
	if err != nil || len(recs) != 4 || recs[0].Seq != 11 {
		t.Fatalf("ReadFrom(11) = %d records (err %v), want 4 from seq 11", len(recs), err)
	}
}

// TestReadFromRacingCheckpoint pins what a checkpoint landing between
// a reader's index lookup and its positioned read looks like: the
// segment it resolved is gone, the checkpoint that took it covers the
// position, and the reader is told ErrCompacted — not handed an I/O
// error, and never a hole.
func TestReadFromRacingCheckpoint(t *testing.T) {
	l, _, _ := mustOpen(t, t.TempDir(), Options{Policy: SyncNever})
	defer l.Close()
	for i := uint64(1); i <= 10; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	f, start, end, err := l.locate(3, 4)
	if err != nil || f == nil {
		t.Fatalf("locate(3, 4) = %v, %v", f, err)
	}
	if err := l.WriteCheckpoint(&Checkpoint{Seq: 10}); err != nil {
		t.Fatal(err)
	}
	if recs, err := l.readIndexed(f, start, end, 3); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read of a segment rotated away = %d records, err %v; want ErrCompacted", len(recs), err)
	}
}

func TestAppendExactFencingAndAdoption(t *testing.T) {
	l, _, _ := mustOpen(t, t.TempDir(), Options{Policy: SyncNever})
	defer l.Close()
	r1 := rec(1)
	r1.Seq, r1.Epoch = 1, 1
	if err := l.AppendExact(r1); err != nil {
		t.Fatal(err)
	}
	// Wrong next sequence: both a gap and a replay are refused.
	for _, seq := range []uint64{1, 3} {
		bad := rec(seq)
		bad.Seq, bad.Epoch = seq, 1
		if err := l.AppendExact(bad); err == nil {
			t.Fatalf("AppendExact(seq %d) after seq 1 did not fail", seq)
		}
	}
	// A newer epoch is adopted.
	r2 := rec(2)
	r2.Seq, r2.Epoch = 2, 3
	if err := l.AppendExact(r2); err != nil {
		t.Fatal(err)
	}
	if got := l.Epoch(); got != 3 {
		t.Fatalf("Epoch after adopting record = %d, want 3", got)
	}
	// An older epoch is fenced: a resurrected primary's records must
	// never extend the promoted history.
	r3 := rec(3)
	r3.Seq, r3.Epoch = 3, 2
	if err := l.AppendExact(r3); err == nil {
		t.Fatal("AppendExact with regressed epoch did not fail")
	}
}

func TestAdvanceEpochStampsAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir, Options{Policy: SyncNever})
	if _, err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.AdvanceEpoch(1); err == nil {
		t.Fatal("AdvanceEpoch(1) at epoch 1 did not fail; epochs must increase")
	}
	if err := l.AdvanceEpoch(4); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append(rec(2))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := l.ReadFrom(seq, 0)
	if err != nil || len(recs) != 1 || recs[0].Epoch != 4 {
		t.Fatalf("record after AdvanceEpoch(4) = %+v (err %v), want epoch 4", recs, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _, _ := mustOpen(t, dir, Options{Policy: SyncNever})
	defer l2.Close()
	if got := l2.Epoch(); got != 4 {
		t.Fatalf("Epoch after reopen = %d, want 4 (recovered from tail records)", got)
	}
}

func TestInstallCheckpointBootstrap(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir, Options{Policy: SyncNever})
	c := &Checkpoint{Seq: 42, Epoch: 2, Relations: []CheckpointRelation{{Name: "r", Rows: [][]string{{"x"}}}}}
	if err := l.InstallCheckpoint(&Checkpoint{}); err == nil {
		t.Fatal("InstallCheckpoint at seq 0 did not fail")
	}
	if err := l.InstallCheckpoint(c); err != nil {
		t.Fatal(err)
	}
	if got := l.Seq(); got != 42 {
		t.Fatalf("Seq after install = %d, want 42", got)
	}
	if got := l.Epoch(); got != 2 {
		t.Fatalf("Epoch after install = %d, want 2", got)
	}
	// The log continues exactly after the image.
	r := rec(43)
	r.Seq, r.Epoch = 43, 2
	if err := l.AppendExact(r); err != nil {
		t.Fatal(err)
	}
	// A log with history is not pristine: install must refuse.
	if err := l.InstallCheckpoint(c); err == nil {
		t.Fatal("InstallCheckpoint on a non-pristine log did not fail")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A restart recovers the installed image plus the tail.
	l2, c2, tail := mustOpen(t, dir, Options{Policy: SyncNever})
	defer l2.Close()
	if c2 == nil || c2.Seq != 42 || c2.Epoch != 2 {
		t.Fatalf("reopened checkpoint = %+v, want seq 42 epoch 2", c2)
	}
	if len(tail) != 1 || tail[0].Seq != 43 {
		t.Fatalf("reopened tail = %+v, want the one record at seq 43", tail)
	}
}

func TestWaitAppend(t *testing.T) {
	l, _, _ := mustOpen(t, t.TempDir(), Options{Policy: SyncNever})
	defer l.Close()
	if _, err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	// Already satisfied: returns immediately.
	if err := l.WaitAppend(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	// Parked waiter wakes on the next append.
	done := make(chan error, 1)
	go func() { done <- l.WaitAppend(context.Background(), 1) }()
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("WaitAppend(1) returned %v before an append", err)
	default:
	}
	if _, err := l.Append(rec(2)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitAppend(1) did not wake on append")
	}
	// Context cancellation unparks too.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := l.WaitAppend(ctx, 99); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitAppend past head = %v, want DeadlineExceeded", err)
	}
}

// TestConcurrentReadWhileWrite is the live-tail safety property: a
// reader following the log while a writer appends and a concurrent
// checkpointer rotates segments at whatever instant it wins the gate —
// so rotations land mid-read — must never see a torn frame, a wrong
// payload, a sequence gap or an error: the only legal jump is forward
// to a checkpoint horizon (ErrCompacted → resume past the new
// checkpoint). Run with -race this also proves the reader needs no
// writer lock.
func TestConcurrentReadWhileWrite(t *testing.T) {
	const (
		total   = 1500
		ckEvery = 50 // records between rotations, so readers see records too
		readers = 3
	)
	l, _, _ := mustOpen(t, t.TempDir(), Options{Policy: SyncNever})
	defer l.Close()

	// gate stands in for the facade's snapshot gate: appends share it,
	// a checkpoint takes it exclusively (WriteCheckpoint needs the head
	// to hold still); readers never touch it.
	var gate sync.RWMutex
	var wg sync.WaitGroup
	errCh := make(chan error, readers+2)
	writerDone := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		for i := uint64(1); i <= total; i++ {
			gate.RLock()
			_, err := l.Append(rec(i))
			gate.RUnlock()
			if err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for last := uint64(0); ; {
			select {
			case <-writerDone:
				return
			default:
			}
			if l.Seq() < last+ckEvery {
				runtime.Gosched()
				continue
			}
			gate.Lock()
			last = l.Seq()
			err := l.WriteCheckpoint(&Checkpoint{Seq: last})
			gate.Unlock()
			if err != nil {
				errCh <- err
				return
			}
		}
	}()

	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := uint64(1)
			for from <= total {
				recs, err := l.ReadFrom(from, 64)
				if errors.Is(err, ErrCompacted) {
					// Fell behind a checkpoint rotation: the only legal
					// jump, and only ever forward.
					ck, cerr := l.LatestCheckpoint()
					if cerr != nil || ck == nil {
						errCh <- fmt.Errorf("LatestCheckpoint after ErrCompacted: %v", cerr)
						return
					}
					if ck.Seq < from {
						errCh <- fmt.Errorf("compacted at %d but checkpoint covers only %d", from, ck.Seq)
						return
					}
					from = ck.Seq + 1
					continue
				}
				if err != nil {
					errCh <- fmt.Errorf("ReadFrom(%d): %w", from, err)
					return
				}
				for _, r := range recs {
					if r.Seq != from {
						errCh <- fmt.Errorf("sequence gap: got %d, want %d", r.Seq, from)
						return
					}
					if len(r.Rows) != 1 || r.Rows[0][0] != strconv.FormatUint(from, 10) {
						errCh <- fmt.Errorf("torn or wrong payload at seq %d: %v", from, r.Rows)
						return
					}
					from++
				}
				if len(recs) == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					err := l.WaitAppend(ctx, from-1)
					cancel()
					if err != nil {
						errCh <- fmt.Errorf("WaitAppend(%d): %w", from-1, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// LatestCheckpoint reads back the newest durable checkpoint, or nil if
// the log has never checkpointed — where a reader that fell behind a
// rotation resumes. Safe to call while the log is live.
func (l *Log) LatestCheckpoint() (*Checkpoint, error) {
	for attempt := 0; ; attempt++ {
		l.mu.Lock()
		seq := l.ckptSeq
		l.mu.Unlock()
		if seq == 0 {
			return nil, nil
		}
		data, err := os.ReadFile(filepath.Join(l.dir, ckptName(seq)))
		if os.IsNotExist(err) && attempt < 3 {
			continue // a concurrent checkpoint replaced it; re-resolve
		}
		if err != nil {
			return nil, err
		}
		return decodeCheckpoint(data)
	}
}
