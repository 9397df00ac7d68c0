package replication

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"prefcqa"
	"prefcqa/internal/relation"
	"prefcqa/internal/wal"
)

// testFollower returns a follower over an in-memory replica that
// already holds relation r (record 1); no Run drives it — the tests
// play the stream's part through apply and signal.
func testFollower(t *testing.T) *Follower {
	t.Helper()
	local := prefcqa.New()
	local.SetReadOnly(true)
	f := NewFollower("d", local, new(sync.RWMutex), Config{Primary: "http://unused.invalid"})
	create := wal.Record{Seq: 1, Epoch: 1, Op: wal.OpCreate, Rel: "r", Attrs: []relation.WireAttr{{Name: "A", Kind: "int"}}}
	if err := f.apply(create); err != nil {
		t.Fatal(err)
	}
	return f
}

func insertRecord(seq uint64) wal.Record {
	return wal.Record{Seq: seq, Epoch: 1, Op: wal.OpInsert, Rel: "r", Rows: [][]string{{strconv.FormatUint(seq, 10)}}}
}

// TestWaitVersionCapturesChannelBeforeTestingVersion replays the lost
// wake-up step by step. The test holds f.mu, so the waiter stalls at
// its lock; meanwhile the record applies and the signal fires (close
// and replace, exactly signal's body). A waiter that tested the version
// before locking now captures the fresh channel and parks for good —
// in a read-your-writes loop no further apply ever comes; a waiter that
// locks first sees the new version afterwards and returns.
func TestWaitVersionCapturesChannelBeforeTestingVersion(t *testing.T) {
	f := testFollower(t)
	f.mu.Lock()
	done := make(chan error, 1)
	go func() { done <- f.WaitVersion(context.Background(), 2) }()
	// Nothing observable marks "the waiter reached f.mu"; give it time.
	// Arriving late only makes the test pass trivially, never fail.
	time.Sleep(20 * time.Millisecond)
	if err := f.apply(insertRecord(2)); err != nil {
		t.Fatal(err)
	}
	close(f.waitCh)
	f.waitCh = make(chan struct{})
	f.mu.Unlock()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitVersion(2) still parked after version 2 applied and signalled: lost wake-up")
	}
}

// TestWaitVersionZeroLagHammer is the read-your-writes loop at zero
// lag: every round applies exactly one record and nothing else will
// ever signal, so any wait the apply+signal slips past hangs until its
// deadline. Run under -race in CI's flake gate.
func TestWaitVersionZeroLagHammer(t *testing.T) {
	const rounds, waiters = 100000, 4
	f := testFollower(t)
	type result struct {
		seq uint64
		err error
	}
	start := make([]chan uint64, waiters)
	results := make(chan result, waiters) // one send per waiter per round
	var wg sync.WaitGroup
	for w := range start {
		start[w] = make(chan uint64)
		wg.Add(1)
		go func(in <-chan uint64) {
			defer wg.Done()
			for seq := range in {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				err := f.WaitVersion(ctx, seq)
				cancel()
				results <- result{seq, err}
			}
		}(start[w])
	}
	defer func() {
		for _, ch := range start {
			close(ch)
		}
		wg.Wait()
	}()
	for i := 0; i < rounds; i++ {
		seq := uint64(i + 2)
		for _, ch := range start {
			ch <- seq
		}
		if err := f.apply(insertRecord(seq)); err != nil {
			t.Fatal(err)
		}
		f.signal()
		for range start {
			if r := <-results; r.err != nil {
				t.Fatalf("round %d: WaitVersion(%d) = %v with version %d applied and signalled", i, r.seq, r.err, f.AppliedSeq())
			}
		}
	}
}

func TestMarkStoppedReleasesWaiters(t *testing.T) {
	f := testFollower(t)
	done := make(chan error, 1)
	go func() { done <- f.WaitVersion(context.Background(), 99) }()
	f.markStopped("stopped")
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("WaitVersion beyond a stopped follower = %v, want ErrStopped", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("markStopped did not release the waiter")
	}
	// A version already reached is still served after the stop.
	if err := f.WaitVersion(context.Background(), 1); err != nil {
		t.Fatalf("WaitVersion(1) on a stopped follower at version 1 = %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := testFollower(t).WaitVersion(ctx, 99); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitVersion past the watermark of a live follower = %v, want DeadlineExceeded", err)
	}
}

// AppliedSeq returns the replicated watermark: every record up to it
// is applied and readable.
func (f *Follower) AppliedSeq() uint64 { return f.local.WriteVersion() }
