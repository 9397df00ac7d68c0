package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The flusher fsyncs outside the log's lock. These tests hold an fsync
// in flight through the syncFile seam and check what may and may not
// happen meanwhile. No test here may run in parallel: the seam is a
// package variable.

// deadline bounds every wait in these tests: a call that should not
// wait for the held fsync fails the test after it rather than hang.
const deadline = 2 * time.Second

// heldFsyncs replaces syncFile so that each fsync announces itself on
// entered and then waits for the test: a value on release (nil runs the
// real fsync, an error fails it with that error), or open, after which
// every fsync runs through.
type heldFsyncs struct {
	entered     chan struct{} // one value per fsync begun; a test begins far fewer than its 64 slots
	release     chan error
	open        chan struct{}
	openOnce    sync.Once
	calls       atomic.Int32 // fsyncs begun
	closedUnder atomic.Int32 // real fsyncs that found their file closed
}

func holdFsyncs(t *testing.T) *heldFsyncs {
	t.Helper()
	h := &heldFsyncs{entered: make(chan struct{}, 64), release: make(chan error), open: make(chan struct{})}
	prev := syncFile
	syncFile = func(f *os.File) error {
		h.calls.Add(1)
		select {
		case h.entered <- struct{}{}:
		default:
		}
		select {
		case err := <-h.release:
			if err != nil {
				return err
			}
		case <-h.open:
		}
		err := f.Sync()
		if errors.Is(err, os.ErrClosed) {
			h.closedUnder.Add(1)
		}
		return err
	}
	t.Cleanup(func() { syncFile = prev })
	return h
}

// letThrough lets every fsync, held or to come, run.
func (h *heldFsyncs) letThrough() { h.openOnce.Do(func() { close(h.open) }) }

// give hands err to the held fsync: nil runs it, an error fails it.
func (h *heldFsyncs) give(t *testing.T, err error) {
	t.Helper()
	select {
	case h.release <- err:
	case <-time.After(deadline):
		t.Fatalf("no fsync was held for %v", deadline)
	}
}

// await waits for the next fsync to begin.
func (h *heldFsyncs) await(t *testing.T) {
	t.Helper()
	select {
	case <-h.entered:
	case <-time.After(deadline):
		t.Fatalf("no fsync began within %v", deadline)
	}
}

// openHeld opens a log under h. Its clean-up lets the held fsyncs run
// before it closes the log, so a failed test never leaves the flusher
// stuck.
func openHeld(t *testing.T, h *heldFsyncs, opts Options) *Log {
	t.Helper()
	l, _, _ := mustOpen(t, t.TempDir(), opts)
	t.Cleanup(func() {
		h.letThrough()
		l.Close()
	})
	return l
}

// within runs fn and returns its error, failing the test if fn has not
// returned after the deadline.
func within(t *testing.T, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(deadline):
		t.Fatalf("%s did not return within %v while an fsync was in flight", what, deadline)
		return nil
	}
}

// syncAsync starts l.Sync(seq) and returns the channel its result
// arrives on.
func syncAsync(l *Log, seq uint64) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- l.Sync(seq) }()
	return ch
}

// result waits for one Sync result.
func result(t *testing.T, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(deadline):
		t.Fatalf("Sync did not return within %v", deadline)
		return nil
	}
}

// returned reports whether a Sync result is already there, consuming it.
func returned(ch <-chan error) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

var testRec = Record{Op: OpInsert, Rel: "r", Rows: [][]string{{"x"}}}

// appendOne appends testRec and fails the test on an error.
func appendOne(t *testing.T, l *Log) uint64 {
	t.Helper()
	seq, err := l.Append(testRec)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return seq
}

// startHeldFsync appends one record, asks for its barrier and waits
// until the flusher's fsync for it is in flight.
func startHeldFsync(t *testing.T, h *heldFsyncs, l *Log) <-chan error {
	t.Helper()
	first := syncAsync(l, appendOne(t, l))
	h.await(t)
	return first
}

func TestNoCallWaitsForFsync(t *testing.T) {
	h := holdFsyncs(t)
	l := openHeld(t, h, Options{Policy: SyncAlways})
	first := startHeldFsync(t, h, l)

	var seq uint64
	if err := within(t, "Append", func() (err error) { seq, err = l.Append(testRec); return err }); err != nil || seq != 2 {
		t.Fatalf("Append = %d, %v; want 2", seq, err)
	}
	if err := within(t, "AppendExact", func() error {
		return l.AppendExact(Record{Seq: 3, Op: OpInsert, Rel: "r", Rows: [][]string{{"y"}}})
	}); err != nil {
		t.Fatalf("AppendExact: %v", err)
	}
	var recs []Record
	if err := within(t, "ReadFrom", func() (err error) { recs, err = l.ReadFrom(1, 10); return err }); err != nil || len(recs) != 3 {
		t.Fatalf("ReadFrom = %d records, %v; want 3", len(recs), err)
	}
	var head uint64
	if err := within(t, "Position", func() error { head, _, _ = l.Position(); return nil }); err != nil || head != 3 {
		t.Fatalf("Position head = %d; want 3", head)
	}
	if err := within(t, "NeedCheckpoint", func() error { l.NeedCheckpoint(); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := within(t, "WaitAppend", func() error { return l.WaitAppend(context.Background(), 2) }); err != nil {
		t.Fatalf("WaitAppend: %v", err)
	}
	if returned(first) {
		t.Fatal("Sync returned before its fsync did")
	}
	h.give(t, nil)
	if err := result(t, first); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func TestCommittersShareInFlightFsync(t *testing.T) {
	const k = 8
	h := holdFsyncs(t)
	l := openHeld(t, h, Options{Policy: SyncAlways})
	first := startHeldFsync(t, h, l)

	// k committers append while the first fsync is held.
	var appended sync.WaitGroup
	syncs := make([]<-chan error, k)
	for i := range syncs {
		appended.Add(1)
		ch := make(chan error, 1)
		syncs[i] = ch
		go func() {
			seq, err := l.Append(testRec)
			appended.Done()
			if err == nil {
				err = l.Sync(seq)
			}
			ch <- err
		}()
	}
	if err := within(t, "appending while an fsync is held", func() error { appended.Wait(); return nil }); err != nil {
		t.Fatal(err)
	}
	h.letThrough()
	for _, ch := range append(syncs, first) {
		if err := result(t, ch); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
	if n := h.calls.Load(); n > 2 {
		t.Fatalf("%d committers appended during one fsync and took %d fsyncs to release; want at most 2", k, n)
	}
}

func TestFsyncFailurePoisonsLog(t *testing.T) {
	const k = 4
	h := holdFsyncs(t)
	l := openHeld(t, h, Options{Policy: SyncAlways})
	syncs := []<-chan error{startHeldFsync(t, h, l)}
	for range k {
		var seq uint64
		if err := within(t, "Append", func() (err error) { seq, err = l.Append(testRec); return err }); err != nil {
			t.Fatalf("Append: %v", err)
		}
		syncs = append(syncs, syncAsync(l, seq))
	}
	injected := errors.New("injected fsync failure")
	h.give(t, injected)
	for i, ch := range syncs {
		if err := result(t, ch); !errors.Is(err, injected) {
			t.Fatalf("Sync of record %d = %v; want the fsync failure", i+1, err)
		}
	}
	if _, err := l.Append(testRec); !errors.Is(err, injected) {
		t.Fatalf("Append after a failed fsync = %v; want the fsync failure", err)
	}
	if err := l.Sync(1); !errors.Is(err, injected) {
		t.Fatalf("Sync after a failed fsync = %v; want the fsync failure", err)
	}
}

// TestCloseReportsFailedFsync: a log poisoned by a failed fsync, or
// whose own closing fsync fails, does not close clean.
func TestCloseReportsFailedFsync(t *testing.T) {
	injected := errors.New("injected fsync failure")
	t.Run("poisoned", func(t *testing.T) {
		h := holdFsyncs(t)
		l := openHeld(t, h, Options{Policy: SyncAlways})
		first := startHeldFsync(t, h, l)
		h.give(t, injected)
		if err := result(t, first); !errors.Is(err, injected) {
			t.Fatalf("Sync = %v; want the fsync failure", err)
		}
		for i := 0; i < 2; i++ {
			if err := l.Close(); !errors.Is(err, injected) {
				t.Fatalf("Close #%d of a poisoned log = %v; want the fsync failure", i+1, err)
			}
		}
	})
	t.Run("closing fsync", func(t *testing.T) {
		h := holdFsyncs(t)
		l := openHeld(t, h, Options{Policy: SyncNever})
		appendOne(t, l)
		closed := make(chan error, 1)
		go func() { closed <- l.Close() }()
		h.give(t, injected)
		if err := result(t, closed); !errors.Is(err, injected) {
			t.Fatalf("Close whose fsync fails = %v; want the fsync failure", err)
		}
	})
}

func TestRotationWaitsForFsyncInFlight(t *testing.T) {
	h := holdFsyncs(t)
	l := openHeld(t, h, Options{Policy: SyncAlways})
	first := startHeldFsync(t, h, l)

	ckpt := make(chan error, 1)
	go func() { ckpt <- l.WriteCheckpoint(&Checkpoint{Seq: 1}) }()
	// Give a rotation that does not wait the time to close the segment.
	time.Sleep(20 * time.Millisecond)
	h.letThrough()
	if err := result(t, ckpt); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := result(t, first); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if n := h.closedUnder.Load(); n != 0 {
		t.Fatalf("%d fsyncs found their segment closed by the rotation", n)
	}
	// The log is healthy on the fresh segment.
	if err := l.Sync(appendOne(t, l)); err != nil {
		t.Fatalf("Sync after rotation: %v", err)
	}
}

func TestCloseWaitsForFsyncInFlight(t *testing.T) {
	h := holdFsyncs(t)
	l := openHeld(t, h, Options{Policy: SyncAlways})
	first := startHeldFsync(t, h, l)

	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	// Give a Close that does not wait the time to close the segment.
	time.Sleep(20 * time.Millisecond)
	h.letThrough()
	if err := result(t, closed); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := result(t, first); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if n := h.closedUnder.Load(); n != 0 {
		t.Fatalf("%d fsyncs found their segment closed by Close", n)
	}
}

// BenchmarkGroupCommit runs 1, 4 and 16 committers, each looping
// Append + Sync, under SyncAlways and SyncGroup, and reports commits
// per second and the longest commit. Under SyncAlways the committers
// that append while an fsync is in flight share the next one.
func BenchmarkGroupCommit(b *testing.B) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncGroup} {
		for _, committers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/committers=%d", policy, committers), func(b *testing.B) {
				l, _, _, err := Open(b.TempDir(), Options{Policy: policy, CheckpointBytes: -1})
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				var next, longest atomic.Int64
				var wg sync.WaitGroup
				errs := make(chan error, committers)
				b.ResetTimer()
				start := time.Now()
				for range committers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for next.Add(1) <= int64(b.N) {
							t0 := time.Now()
							seq, err := l.Append(testRec)
							if err == nil {
								err = l.Sync(seq)
							}
							if err != nil {
								errs <- err
								return
							}
							d := int64(time.Since(t0))
							for cur := longest.Load(); d > cur && !longest.CompareAndSwap(cur, d); cur = longest.Load() {
							}
						}
					}()
				}
				wg.Wait()
				elapsed := time.Since(start)
				b.StopTimer()
				select {
				case err := <-errs:
					b.Fatal(err)
				default:
				}
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "commits/s")
				b.ReportMetric(float64(longest.Load())/1e6, "max-commit-ms")
			})
		}
	}
}
