package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects the durability barrier applied before a logged
// mutation is acknowledged.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every acknowledgement. The flusher
	// goroutine runs the fsync without the log's lock, so committers
	// keep appending while it is in flight and the next fsync covers
	// all of them (group commit): the cost is one fsync per batch of
	// concurrent writers, not one per write. A write acknowledged
	// under SyncAlways survives SIGKILL and power loss.
	SyncAlways SyncPolicy = iota
	// SyncGroup acknowledges immediately after the record reaches the
	// OS; a background flusher fsyncs on a bounded interval
	// (Options.FlushInterval). A crash can lose at most the writes of
	// the last interval; process death without power loss loses
	// nothing (the records are already in the page cache).
	SyncGroup
	// SyncNever performs no fsyncs while serving (records still reach
	// the OS on every append; a clean Close syncs once). Process death
	// loses nothing, power loss may lose anything since the OS last
	// wrote back.
	SyncNever
)

// ParseSyncPolicy parses "always", "group" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "group":
		return SyncGroup, nil
	case "never", "off":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, group or never)", s)
	}
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncGroup:
		return "group"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Options configure a Log.
type Options struct {
	// Policy is the durability barrier (default SyncAlways).
	Policy SyncPolicy
	// FlushInterval bounds how long a SyncGroup record may sit
	// unsynced. Zero selects 2ms.
	FlushInterval time.Duration
	// CheckpointBytes is the log growth after which NeedCheckpoint
	// reports true. Zero selects 8 MiB; negative disables automatic
	// checkpoints.
	CheckpointBytes int64
}

func (o Options) withDefaults() Options {
	if o.FlushInterval <= 0 {
		o.FlushInterval = 2 * time.Millisecond
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 8 << 20
	}
	return o
}

// Log is an append-only write-ahead log bound to one directory. The
// directory holds at most one checkpoint file plus the log segments
// written since; Append adds records to the active segment,
// WriteCheckpoint atomically replaces everything with a fresh
// checkpoint and an empty segment. Every record above the checkpoint
// therefore sits in the active segment, record seq at index
// seq-segStart of the in-memory offset index ReadFrom reads through.
//
// Append is safe for concurrent use; callers serialize per-relation
// ordering themselves (the facade appends under its relation lock).
type Log struct {
	dir  string
	opts Options

	seq   atomic.Uint64 // last assigned record sequence
	epoch atomic.Uint64 // current replication epoch (≥ 1)

	mu             sync.Mutex
	cond           *sync.Cond    // broadcast when syncedSeq or err advances, or an fsync ends
	appendCh       chan struct{} // closed and replaced on every append (tail notification)
	f              *os.File      // active segment (appended under mu, ReadAt by ReadFrom without it)
	segStart       uint64        // first sequence the active segment may hold
	ends           []int64       // offset index: ends[i] is the byte offset just past record segStart+i
	ckptSeq        uint64        // sequence of the newest durable checkpoint
	ckptEpoch      uint64        // epoch recorded in that checkpoint (0 = none)
	syncedSeq      uint64        // highest sequence known durable
	syncing        bool          // the flusher is fsyncing f without the lock; f must not be closed
	bytesSinceCkpt int64
	err            error // sticky I/O failure
	closed         bool

	flushCh chan struct{} // wakes the flusher (SyncAlways)
	quit    chan struct{}
	done    chan struct{}
}

// syncFile fsyncs a segment. Tests replace it to hold an fsync in
// flight or to fail one.
var syncFile = (*os.File).Sync

func segName(start uint64) string { return fmt.Sprintf("wal-%016x.log", start) }
func ckptName(seq uint64) string  { return fmt.Sprintf("checkpoint-%016x.ckpt", seq) }
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	var n uint64
	if _, err := fmt.Sscanf(mid, "%x", &n); err != nil || len(mid) != 16 {
		return 0, false
	}
	return n, true
}

// Open opens (or creates) the log directory, recovers its state and
// readies the log for appending. It returns the newest checkpoint (nil
// if none) and the tail records beyond it, in sequence order; the
// caller replays checkpoint then tail to rebuild the database. A torn
// final record — a crash mid-append — is truncated silently; any other
// inconsistency is a loud error.
func Open(dir string, opts Options) (*Log, *Checkpoint, []Record, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var segStarts, ckptSeqs []uint64
	for _, e := range entries {
		if s, ok := parseSeqName(e.Name(), "wal-", ".log"); ok {
			segStarts = append(segStarts, s)
		}
		if s, ok := parseSeqName(e.Name(), "checkpoint-", ".ckpt"); ok {
			ckptSeqs = append(ckptSeqs, s)
		}
	}
	sort.Slice(segStarts, func(i, j int) bool { return segStarts[i] < segStarts[j] })
	sort.Slice(ckptSeqs, func(i, j int) bool { return ckptSeqs[i] < ckptSeqs[j] })
	os.Remove(filepath.Join(dir, "checkpoint.tmp")) // leftover of an interrupted checkpoint

	var ckpt *Checkpoint
	base := uint64(0)
	if len(ckptSeqs) > 0 {
		newest := ckptSeqs[len(ckptSeqs)-1]
		data, err := os.ReadFile(filepath.Join(dir, ckptName(newest)))
		if err != nil {
			return nil, nil, nil, err
		}
		ckpt, err = decodeCheckpoint(data)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", ckptName(newest), err)
		}
		if ckpt.Seq != newest {
			return nil, nil, nil, fmt.Errorf("wal: checkpoint %s declares seq %d", ckptName(newest), ckpt.Seq)
		}
		base = newest
	}

	var tail []Record
	var ends []int64 // record end offsets of the final (active) segment
	prev := uint64(0)
	for i, start := range segStarts {
		name := filepath.Join(dir, segName(start))
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, nil, nil, err
		}
		var recs []Record
		var torn bool
		recs, ends, torn, err = decodeSegment(data)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", segName(start), err)
		}
		validLen := int(segEnd(ends))
		if torn && i != len(segStarts)-1 {
			return nil, nil, nil, fmt.Errorf("wal: %s: torn record in a non-final segment", segName(start))
		}
		if len(recs) > 0 {
			if recs[0].Seq != start {
				return nil, nil, nil, fmt.Errorf("wal: %s: first record has seq %d", segName(start), recs[0].Seq)
			}
			if prev != 0 && recs[0].Seq != prev+1 {
				return nil, nil, nil, fmt.Errorf("wal: %s: seq %d does not follow %d", segName(start), recs[0].Seq, prev)
			}
			prev = recs[len(recs)-1].Seq
		}
		for _, r := range recs {
			if r.Seq > base {
				tail = append(tail, r)
			}
		}
		if torn && validLen < len(data) {
			if err := os.Truncate(name, int64(validLen)); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	if len(tail) > 0 && tail[0].Seq != base+1 {
		return nil, nil, nil, fmt.Errorf("wal: gap after checkpoint: first tail record has seq %d, checkpoint covers %d", tail[0].Seq, base)
	}
	last := base
	if len(tail) > 0 {
		last = tail[len(tail)-1].Seq
	}
	// Recover the replication epoch: the newest of the checkpoint's and
	// the tail records' epochs (pre-epoch logs carry 0, normalized to
	// the initial epoch 1). Epochs are non-decreasing within a log, so
	// the maximum is the current one.
	epoch := uint64(1)
	if ckpt != nil && ckpt.Epoch > epoch {
		epoch = ckpt.Epoch
	}
	for _, r := range tail {
		if r.Epoch > epoch {
			epoch = r.Epoch
		}
	}

	l := &Log{
		dir:       dir,
		opts:      opts,
		segStart:  base + 1,
		ckptSeq:   base,
		syncedSeq: last,
		appendCh:  make(chan struct{}),
		flushCh:   make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	l.seq.Store(last)
	l.epoch.Store(epoch)
	if ckpt != nil {
		l.ckptEpoch = ckpt.Epoch
	}
	if len(segStarts) > 0 {
		l.segStart, l.ends = segStarts[len(segStarts)-1], ends
		f, err := os.OpenFile(filepath.Join(dir, segName(l.segStart)), os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, nil, err
		}
		l.f = f
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, nil, err
		}
		l.bytesSinceCkpt = fi.Size()
	} else {
		f, err := os.OpenFile(filepath.Join(dir, segName(l.segStart)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, nil, nil, err
		}
		l.f = f
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, nil, nil, err
		}
	}
	switch opts.Policy {
	case SyncAlways, SyncGroup:
		go l.flusher()
	default:
		close(l.done)
	}
	return l, ckpt, tail, nil
}

// Seq returns the last assigned record sequence — the write-version of
// the logged history.
func (l *Log) Seq() uint64 { return l.seq.Load() }

// NeedCheckpoint reports whether the log has grown past the
// checkpoint threshold since the last checkpoint.
func (l *Log) NeedCheckpoint() bool {
	if l.opts.CheckpointBytes < 0 {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytesSinceCkpt > l.opts.CheckpointBytes
}

// fail records a sticky I/O error and wakes every waiter. Caller
// holds l.mu.
func (l *Log) fail(err error) {
	if l.err == nil {
		l.err = fmt.Errorf("wal: %w", err)
	}
	l.cond.Broadcast()
	l.notifyAppendLocked()
}

// Append assigns the next sequence to rec, writes its frame to the
// active segment and returns the sequence. The record is in the OS
// when Append returns; call Sync to apply the durability barrier
// before acknowledging the mutation to a client.
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	seq := l.seq.Load() + 1
	rec.Seq = seq
	rec.Epoch = l.epoch.Load()
	frame, err := EncodeRecord(rec)
	if err != nil {
		return 0, err
	}
	if err := l.writeLocked(frame); err != nil {
		return 0, err
	}
	l.seq.Store(seq)
	l.notifyAppendLocked()
	return seq, nil
}

// writeLocked appends one record frame to the active segment and
// indexes its end offset. Caller holds l.mu.
func (l *Log) writeLocked(frame []byte) error {
	if _, err := l.f.Write(frame); err != nil {
		l.fail(err)
		return l.err
	}
	l.bytesSinceCkpt += int64(len(frame))
	l.ends = append(l.ends, segEnd(l.ends)+int64(len(frame)))
	return nil
}

// segEnd returns the offset just past the last indexed record: the
// valid length of the segment the index describes.
func segEnd(ends []int64) int64 {
	if n := len(ends); n > 0 {
		return ends[n-1]
	}
	return 0
}

// notifyAppendLocked wakes every WaitAppend waiter by closing the
// current notification channel and installing a fresh one. Caller
// holds l.mu.
func (l *Log) notifyAppendLocked() {
	close(l.appendCh)
	l.appendCh = make(chan struct{})
}

// Sync blocks until the record with the given sequence is durable
// under the configured policy: for SyncAlways it waits for an fsync
// covering seq (sharing the fsync with concurrent committers); for
// SyncGroup and SyncNever it returns immediately.
func (l *Log) Sync(seq uint64) error {
	if l.opts.Policy != SyncAlways {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncedSeq < seq && l.err == nil && !l.closed {
		select {
		case l.flushCh <- struct{}{}:
		default:
		}
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.syncedSeq < seq {
		return fmt.Errorf("wal: closed before seq %d was synced", seq)
	}
	return nil
}

// flusher batches fsyncs: it wakes on demand (SyncAlways committers)
// or on the flush interval (SyncGroup) and syncs everything appended
// so far, waking all committers the sync covers.
func (l *Log) flusher() {
	defer close(l.done)
	var tick *time.Ticker
	var tickCh <-chan time.Time
	if l.opts.Policy == SyncGroup {
		tick = time.NewTicker(l.opts.FlushInterval)
		tickCh = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case <-l.flushCh:
		case <-tickCh:
		case <-l.quit:
			l.flushOnce()
			return
		}
		l.flushOnce()
	}
}

// flushOnce fsyncs the active segment up to the current sequence. It
// captures the target and the file under the lock, fsyncs without it,
// so appends, tail reads and the next committers never wait for the
// disk, and takes the lock again only to publish the result. While
// syncing is set, rotation waits rather than close the file.
func (l *Log) flushOnce() {
	l.mu.Lock()
	target, f := l.seq.Load(), l.f
	if l.err != nil || l.closed || l.syncedSeq >= target {
		l.mu.Unlock()
		return
	}
	l.syncing = true
	l.mu.Unlock()

	err := syncFile(f)

	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncing = false
	if err != nil {
		l.fail(err)
		return
	}
	// A clean Close may have synced further meanwhile.
	l.syncedSeq = max(l.syncedSeq, target)
	l.cond.Broadcast()
}

// waitFlushLocked waits until no fsync is in flight, so the active
// segment may be closed. Caller holds l.mu; the wait releases it, so
// the caller checks the log's state after it.
func (l *Log) waitFlushLocked() {
	for l.syncing {
		l.cond.Wait()
	}
}

// WriteCheckpoint durably installs a checkpoint covering the whole
// logged history (c.Seq must equal the last assigned sequence; the
// facade guarantees quiescence by holding its snapshot gate) and
// truncates the log: a fresh empty segment becomes active and every
// older segment and checkpoint file is removed. Once the checkpoint
// file is durable it subsumes all logged records, so waiting
// committers are released by it.
func (l *Log) WriteCheckpoint(c *Checkpoint) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.waitFlushLocked()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if c.Seq != l.seq.Load() {
		return fmt.Errorf("wal: checkpoint at seq %d, log is at %d", c.Seq, l.seq.Load())
	}
	if c.Epoch == 0 {
		c.Epoch = l.epoch.Load()
	}
	if c.Seq == l.ckptSeq && l.bytesSinceCkpt == 0 && c.Epoch == l.ckptEpoch {
		return nil // nothing logged (and no epoch change) since the last checkpoint
	}
	if err := l.installCheckpointLocked(c); err != nil {
		return err
	}
	l.syncedSeq = c.Seq
	l.cond.Broadcast()
	return nil
}

// installCheckpointLocked durably writes the checkpoint file, rotates
// to a fresh empty segment at c.Seq+1 and removes every file the
// checkpoint subsumes. Caller holds l.mu, has waited out any fsync in
// flight (waitFlushLocked) and has then validated c.Seq.
func (l *Log) installCheckpointLocked(c *Checkpoint) error {
	frame, err := encodeCheckpointFile(c)
	if err != nil {
		return err
	}
	tmp := filepath.Join(l.dir, "checkpoint.tmp")
	if err := writeFileSync(tmp, frame); err != nil {
		l.fail(err)
		return l.err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, ckptName(c.Seq))); err != nil {
		l.fail(err)
		return l.err
	}
	if err := syncDir(l.dir); err != nil {
		l.fail(err)
		return l.err
	}
	// The checkpoint is durable: rotate to a fresh segment and drop
	// everything it subsumes. When the active segment already starts
	// right after the checkpoint (an epoch-only re-checkpoint at the
	// same seq, e.g. promotion right after bootstrap), it is kept:
	// every record it could hold is > c.Seq by construction.
	newStart := c.Seq + 1
	if l.segStart != newStart {
		nf, err := os.OpenFile(filepath.Join(l.dir, segName(newStart)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			l.fail(err)
			return l.err
		}
		old := l.f
		l.f, l.segStart, l.ends = nf, newStart, l.ends[:0]
		old.Close()
	}
	entries, err := os.ReadDir(l.dir)
	if err == nil {
		for _, e := range entries {
			if s, ok := parseSeqName(e.Name(), "wal-", ".log"); ok && s != newStart {
				os.Remove(filepath.Join(l.dir, e.Name()))
			}
			if s, ok := parseSeqName(e.Name(), "checkpoint-", ".ckpt"); ok && s != c.Seq {
				os.Remove(filepath.Join(l.dir, e.Name()))
			}
		}
	}
	syncDir(l.dir) //nolint:errcheck // removals are cleanup, not correctness
	l.ckptSeq = c.Seq
	l.ckptEpoch = c.Epoch
	l.bytesSinceCkpt = 0
	return nil
}

// Close flushes and fsyncs the active segment (a clean shutdown is
// durable under every policy), stops the flusher and closes the log.
// A log whose fsync has failed, before or during Close, returns that
// sticky error: the shutdown was not clean.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		<-l.done
		return err
	}
	if l.err == nil && l.syncedSeq < l.seq.Load() {
		if err := syncFile(l.f); err != nil {
			l.fail(err)
		} else {
			l.syncedSeq = l.seq.Load()
		}
	}
	err := l.err
	l.closed = true
	l.cond.Broadcast()
	l.notifyAppendLocked()
	l.mu.Unlock()
	close(l.quit)
	<-l.done
	l.mu.Lock()
	cerr := l.f.Close()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return cerr
}

func encodeCheckpointFile(c *Checkpoint) ([]byte, error) {
	payload, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	return appendFrame(nil, payload), nil
}

func writeFileSync(name string, data []byte) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
