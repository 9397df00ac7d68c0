package wal

import (
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
// directory holds the newest checkpoint file plus the log segments
// written since; Append adds records to the active segment. A
// checkpoint is cut (Cut) by rotating to a fresh segment that starts
// right after it, written with no lock held, and installed by
// replacing every file it subsumes. Every record above the cut
// therefore sits in the active segment, record seq at index
// seq-segStart of the in-memory offset index ReadFrom reads through;
// the records between the previous checkpoint and a pending cut sit in
// the pre-cut segment, which keeps its own index until the install.
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

	// The pre-cut segment of a pending checkpoint (see Cut): the old
	// active segment and its offset index, open from the rotation until
	// the install. prevSynced records that the flusher has fsynced it
	// and the directory entry of the segment after it.
	prevF      *os.File
	prevStart  uint64
	prevEnds   []int64
	prevSynced bool
	pending    bool // a checkpoint is cut and not yet installed

	flushCh chan struct{} // wakes the flusher (SyncAlways)
	quit    chan struct{}
	done    chan struct{}
}

// syncFile fsyncs a file or a directory: every disk wait of the log
// (segments, the checkpoint file, the directory) goes through it.
// Tests replace it to hold an fsync in flight or to fail one.
var syncFile = (*os.File).Sync

// SetSyncFile replaces the log's fsync for the tests of the packages
// above it, which hold a checkpoint in flight through it, and returns
// the function that restores the previous one.
func SetSyncFile(fn func(*os.File) error) (restore func()) {
	prev := syncFile
	syncFile = fn
	return func() { syncFile = prev }
}

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

	// A cut makes its segment before it writes the checkpoint, so a
	// crash can leave segments past the last record, empty or holding
	// only a torn frame: the trailing ones. The segment holding the
	// last record is the final one; only it and the trailing ones may
	// end torn.
	var tail []Record
	var size int64 // bytes of every segment: what the next checkpoint compacts
	var final struct {
		start, last uint64
		ends        []int64 // record end offsets
		torn        bool
	}
	var trailing []uint64
	prev := uint64(0)
	tornSeg := "" // a segment ending torn: corruption if a record follows
	for _, start := range segStarts {
		data, err := os.ReadFile(filepath.Join(dir, segName(start)))
		if err != nil {
			return nil, nil, nil, err
		}
		recs, ends, torn, err := decodeSegment(data)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", segName(start), err)
		}
		size += segEnd(ends)
		if len(recs) > 0 {
			if tornSeg != "" {
				return nil, nil, nil, fmt.Errorf("wal: %s: torn record in a non-final segment", tornSeg)
			}
			if recs[0].Seq != start {
				return nil, nil, nil, fmt.Errorf("wal: %s: first record has seq %d", segName(start), recs[0].Seq)
			}
			if prev != 0 && recs[0].Seq != prev+1 {
				return nil, nil, nil, fmt.Errorf("wal: %s: seq %d does not follow %d", segName(start), recs[0].Seq, prev)
			}
			prev = recs[len(recs)-1].Seq
			final.start, final.last, final.ends, final.torn = start, prev, ends, torn
			trailing = trailing[:0]
		} else {
			trailing = append(trailing, start)
		}
		if torn {
			tornSeg = segName(start)
		}
		// A segment's records are consecutive, so those past the
		// checkpoint are a suffix of it. The first segment holding some
		// starts the tail as it is; only later ones are copied onto it.
		past := recs[sort.Search(len(recs), func(i int) bool { return recs[i].Seq > base }):]
		if len(tail) == 0 {
			tail = past
		} else {
			tail = append(tail, past...)
		}
	}
	if len(tail) > 0 && tail[0].Seq != base+1 {
		return nil, nil, nil, fmt.Errorf("wal: gap after checkpoint: first tail record has seq %d, checkpoint covers %d", tail[0].Seq, base)
	}
	last := base
	if len(tail) > 0 {
		last = tail[len(tail)-1].Seq
	}
	// The next record lands where its sequence says: in the trailing
	// segment the cut at the head made, else in the final segment if
	// it ends at the head, else in a fresh one. The other trailing
	// segments are dropped (a crash lost the records below their cut)
	// and every torn end is truncated.
	var active uint64 // 0: make a fresh segment
	var ends []int64
	if final.start != 0 && final.last == last {
		active, ends = final.start, final.ends
	}
	for _, s := range trailing {
		if s == last+1 {
			active, ends = s, nil
		}
	}
	if final.torn {
		if err := os.Truncate(filepath.Join(dir, segName(final.start)), segEnd(final.ends)); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, s := range trailing {
		name := filepath.Join(dir, segName(s))
		if s == active {
			err = os.Truncate(name, 0)
		} else {
			err = os.Remove(name)
		}
		if err != nil {
			return nil, nil, nil, err
		}
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
		segStart:  last + 1,
		ckptSeq:   base,
		syncedSeq: last,
		appendCh:  make(chan struct{}),
		flushCh:   make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	l.bytesSinceCkpt = size
	l.seq.Store(last)
	l.epoch.Store(epoch)
	if ckpt != nil {
		l.ckptEpoch = ckpt.Epoch
	}
	if active != 0 {
		l.segStart, l.ends = active, ends
		f, err := os.OpenFile(filepath.Join(dir, segName(l.segStart)), os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, nil, err
		}
		l.f = f
	} else {
		f, err := os.OpenFile(filepath.Join(dir, segName(l.segStart)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, nil, nil, err
		}
		l.f = f
		// Before the log serves, so not through the syncFile seam.
		if err := syncDir(dir, (*os.File).Sync); err != nil {
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
	return !l.closed && l.err == nil && l.bytesSinceCkpt > l.opts.CheckpointBytes
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

// flushOnce fsyncs the active segment up to the current sequence,
// after the pre-cut segment of a pending checkpoint if it has not
// synced that yet (syncSegments). It captures the target and the files
// under the lock, fsyncs without it, so appends, tail reads and the
// next committers never wait for the disk, and takes the lock again
// only to publish the result. While syncing is set, nothing closes a
// file it syncs.
func (l *Log) flushOnce() {
	l.mu.Lock()
	target, f, prev := l.seq.Load(), l.f, l.unsyncedPrevLocked()
	if l.err != nil || l.closed || l.syncedSeq >= target {
		l.mu.Unlock()
		return
	}
	l.syncing = true
	l.mu.Unlock()

	err := l.syncSegments(prev, f)

	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncing = false
	if err != nil {
		l.fail(err)
		return
	}
	if prev != nil && prev == l.prevF {
		l.prevSynced = true
	}
	// A clean Close may have synced further meanwhile.
	l.syncedSeq = max(l.syncedSeq, target)
	l.cond.Broadcast()
}

// unsyncedPrevLocked returns the pre-cut segment while it still needs
// its fsync, else nil. Caller holds l.mu.
func (l *Log) unsyncedPrevLocked() *os.File {
	if l.prevSynced {
		return nil
	}
	return l.prevF
}

// syncSegments fsyncs the active segment f. A pre-cut segment prev, if
// given, goes first, and then the directory, which holds the entry of
// the segment that follows it: no record above a checkpoint cut is
// made durable before every record below it.
func (l *Log) syncSegments(prev, f *os.File) error {
	if prev != nil {
		if err := syncFile(prev); err != nil {
			return err
		}
		if err := syncDir(l.dir, syncFile); err != nil {
			return err
		}
	}
	return syncFile(f)
}

// waitFlushLocked waits until no fsync is in flight, so a segment it
// syncs may be closed. Caller holds l.mu; the wait releases it, so
// the caller checks the log's state after it.
func (l *Log) waitFlushLocked() {
	for l.syncing {
		l.cond.Wait()
	}
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
		if err := l.syncSegments(l.unsyncedPrevLocked(), l.f); err != nil {
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
	if l.prevF != nil {
		l.prevF.Close()
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return cerr
}

// syncDir fsyncs a directory with fsync, so the entries created,
// renamed or removed in it are durable.
func syncDir(dir string, fsync func(*os.File) error) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return fsync(d)
}
