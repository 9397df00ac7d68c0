package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
)

// ErrCompacted reports that the requested tail position has been
// subsumed by a checkpoint: the records are gone from the log and the
// reader must restart from a checkpoint image instead.
var ErrCompacted = errors.New("wal: position compacted into a checkpoint")

// Epoch returns the current replication epoch (≥ 1). See Record.Epoch.
func (l *Log) Epoch() uint64 { return l.epoch.Load() }

// AdvanceEpoch raises the replication epoch; e must exceed the current
// epoch. Subsequent Appends stamp the new epoch, fencing off replicas
// of the old history. The bump itself becomes durable with the next
// record or checkpoint.
func (l *Log) AdvanceEpoch(e uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cur := l.epoch.Load(); e <= cur {
		return fmt.Errorf("wal: epoch %d does not advance current epoch %d", e, cur)
	}
	l.epoch.Store(e)
	return nil
}

// AppendExact writes a replicated record at exactly rec.Seq, which
// must be the next sequence of this log — a follower persisting the
// primary's stream bit-for-bit. The record's epoch must not regress
// (fencing); the log adopts it. The record is in the OS when
// AppendExact returns; durability follows the log's sync policy.
func (l *Log) AppendExact(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if want := l.seq.Load() + 1; rec.Seq != want {
		return fmt.Errorf("wal: replicated record has seq %d, want %d", rec.Seq, want)
	}
	if rec.Epoch == 0 {
		rec.Epoch = 1
	}
	if cur := l.epoch.Load(); rec.Epoch < cur {
		return fmt.Errorf("wal: fenced: record epoch %d behind local epoch %d", rec.Epoch, cur)
	}
	frame, err := EncodeRecord(rec)
	if err != nil {
		return err
	}
	if err := l.writeLocked(frame); err != nil {
		return err
	}
	l.seq.Store(rec.Seq)
	l.epoch.Store(rec.Epoch)
	l.notifyAppendLocked()
	return nil
}

// InstallCheckpoint seeds a pristine (never-written) log with a
// checkpoint image received from a primary: the follower's bootstrap.
// After it returns the log behaves exactly as if it had logged and
// checkpointed records 1..c.Seq itself. Nothing appends to a log that
// is being seeded, so it writes the checkpoint under the lock, and it
// makes the checkpoint durable before it rotates past it: a crash or
// a failed write at any point leaves the empty segment, beside a
// temporary file or the checkpoint, which Open recovers.
func (l *Log) InstallCheckpoint(c *Checkpoint) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.pending { // an epoch-only checkpoint of the empty log
		l.cond.Wait()
	}
	l.waitFlushLocked()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if l.seq.Load() != 0 || l.ckptSeq != 0 || l.bytesSinceCkpt != 0 {
		return fmt.Errorf("wal: InstallCheckpoint requires a pristine log (seq %d, checkpoint %d)", l.seq.Load(), l.ckptSeq)
	}
	if c.Seq == 0 {
		return fmt.Errorf("wal: cannot install a checkpoint at seq 0")
	}
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	if err := l.writeCheckpointTmp(c); err != nil {
		l.fail(err)
		return l.err
	}
	if err := l.renameCheckpointLocked(c); err != nil {
		return err
	}
	if err := l.rotateLocked(c.Seq + 1); err != nil {
		return err
	}
	l.dropSubsumedLocked(c)
	l.seq.Store(c.Seq)
	if c.Epoch > l.epoch.Load() {
		l.epoch.Store(c.Epoch)
	}
	l.syncedSeq = c.Seq
	return nil
}

// ReadFrom returns up to max records starting at exactly fromSeq, in
// sequence order, while the log stays live: the offset index resolves
// the range under the lock, then one positioned read of exactly those
// bytes runs outside it, so the cost is that of the records returned,
// not of the segment. A pending checkpoint does not move the horizon:
// its pre-cut segment is served (a batch stops at its end) until the
// checkpoint is installed. It returns ErrCompacted when fromSeq is
// already subsumed by a checkpoint — the reader must restart from a
// checkpoint image — and an empty slice when fromSeq is beyond the
// head (nothing to read yet).
func (l *Log) ReadFrom(fromSeq uint64, max int) ([]Record, error) {
	if fromSeq == 0 {
		return nil, fmt.Errorf("wal: sequences start at 1")
	}
	if max <= 0 {
		max = 1 << 10
	}
	f, start, end, err := l.locate(fromSeq, max)
	if err != nil || f == nil {
		return nil, err
	}
	return l.readIndexed(f, start, end, fromSeq)
}

// readIndexed reads and decodes the located byte range [start, end) of
// f, whose first record is fromSeq. It runs without the lock, so a
// checkpoint may rotate f away first: indexed bytes are never
// rewritten, they can only vanish that way, and that checkpoint
// covers fromSeq — re-resolving answers ErrCompacted.
func (l *Log) readIndexed(f *os.File, start, end int64, fromSeq uint64) ([]Record, error) {
	buf := make([]byte, end-start)
	if _, err := f.ReadAt(buf, start); err != nil {
		if _, _, _, lerr := l.locate(fromSeq, 1); lerr != nil {
			return nil, lerr
		}
		return nil, fmt.Errorf("wal: reading records from seq %d: %w", fromSeq, err)
	}
	recs, _, torn, err := decodeSegment(buf)
	if err == nil && (torn || len(recs) == 0 || recs[0].Seq != fromSeq) {
		err = fmt.Errorf("wal: offset index out of step with the segment at seq %d", fromSeq)
	}
	return recs, err
}

// locate resolves the records from fromSeq on — as many as exist, at
// most max, within one segment — to their byte range in the active
// segment or in a pending checkpoint's pre-cut segment. A nil file
// with a nil error means fromSeq is beyond the head.
func (l *Log) locate(fromSeq uint64, max int) (f *os.File, start, end int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, segStart, ends, last := l.f, l.segStart, l.ends, l.seq.Load()
	if l.prevF != nil && fromSeq < segStart {
		f, segStart, ends, last = l.prevF, l.prevStart, l.prevEnds, segStart-1
	}
	switch {
	case l.err != nil:
		return nil, 0, 0, l.err
	case fromSeq <= l.ckptSeq || fromSeq < segStart:
		// Below the segment too: the rest of a checkpoint whose install
		// a crash interrupted, which Open replayed but does not index.
		return nil, 0, 0, ErrCompacted
	case fromSeq > last:
		return nil, 0, 0, nil
	}
	i, n := int(fromSeq-segStart), min(max, int(last-fromSeq)+1)
	if i+n > len(ends) {
		return nil, 0, 0, fmt.Errorf("wal: offset index does not cover seq %d", fromSeq)
	}
	return f, segEnd(ends[:i]), ends[i+n-1], nil
}

// WaitAppend blocks until the log's head sequence exceeds after, the
// context is done, or the log closes/fails. It is the long-poll
// primitive behind the replication stream: followers park here instead
// of polling the segment files.
func (l *Log) WaitAppend(ctx context.Context, after uint64) error {
	for {
		l.mu.Lock()
		switch {
		case l.err != nil:
			err := l.err
			l.mu.Unlock()
			return err
		case l.closed:
			l.mu.Unlock()
			return fmt.Errorf("wal: log is closed")
		case l.seq.Load() > after:
			l.mu.Unlock()
			return nil
		}
		ch := l.appendCh
		l.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Stats is a point-in-time observability snapshot of the log.
type Stats struct {
	Seq           uint64 // last assigned record sequence
	CheckpointSeq uint64 // sequence of the newest durable checkpoint
	Epoch         uint64 // current replication epoch
	Segments      int    // live segment files
	SegmentBytes  int64  // total bytes across live segments
	Policy        SyncPolicy
}

// Position reports the head sequence, the newest durable checkpoint's
// sequence and the epoch from the log's fields alone — what a stream
// frame needs, without the directory walk Stats pays for the footprint.
func (l *Log) Position() (seq, ckptSeq, epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq.Load(), l.ckptSeq, l.epoch.Load()
}

// Stats reports the log's current position, checkpoint coverage, epoch
// and on-disk footprint. The footprint is read from the directory
// after the lock is released, so it never stalls an Append.
func (l *Log) Stats() Stats {
	st := Stats{Policy: l.opts.Policy}
	st.Seq, st.CheckpointSeq, st.Epoch = l.Position()
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return st
	}
	for _, e := range entries {
		if _, ok := parseSeqName(e.Name(), "wal-", ".log"); !ok {
			continue
		}
		st.Segments++
		if fi, err := e.Info(); err == nil {
			st.SegmentBytes += fi.Size()
		}
	}
	return st
}
