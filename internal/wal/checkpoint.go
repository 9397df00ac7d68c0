package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"prefcqa/internal/relation"
)

// payloadFlushAt is the buffered size at which WritePayload hands its
// buffer to the writer: a few system calls per megabyte, one buffer per
// checkpoint.
const payloadFlushAt = 64 << 10

// payload streams a checkpoint's JSON through one buffer.
type payload struct {
	w   io.Writer
	buf []byte
	err error // the first write error; later writes are dropped
}

// flush hands the buffer to the writer once it has grown past
// payloadFlushAt, or whenever all is set.
func (p *payload) flush(all bool) {
	if len(p.buf) < payloadFlushAt && !all {
		return
	}
	if p.err == nil {
		_, p.err = p.w.Write(p.buf)
	}
	p.buf = p.buf[:0]
}

// WritePayload streams the JSON of c to w: byte for byte what
// json.Marshal writes for it, so decodeCheckpoint reads it back, but
// written without reflection and without building the document. A
// relation with Inst set is written from its pinned instance: each
// cell straight from the columns (relation.AppendJSONCell), the dead
// IDs from its tombstones.
func WritePayload(w io.Writer, c *Checkpoint) error {
	p := &payload{w: w, buf: make([]byte, 0, payloadFlushAt+payloadFlushAt/2)}
	p.buf = strconv.AppendUint(append(p.buf, `{"seq":`...), c.Seq, 10)
	if c.Epoch != 0 {
		p.buf = strconv.AppendUint(append(p.buf, `,"epoch":`...), c.Epoch, 10)
	}
	p.buf = append(p.buf, `,"relations":`...)
	p.list(c.Relations == nil, len(c.Relations), func(i int) { p.relation(&c.Relations[i]) })
	p.buf = append(p.buf, '}')
	p.flush(true)
	return p.err
}

// list writes n items as a JSON array, item(i) writing the i-th, and
// null for a nil slice; it offers the buffer to the writer after each
// item.
func (p *payload) list(null bool, n int, item func(i int)) {
	if null {
		p.buf = append(p.buf, "null"...)
		return
	}
	p.buf = append(p.buf, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			p.buf = append(p.buf, ',')
		}
		item(i)
		p.flush(false)
	}
	p.buf = append(p.buf, ']')
}

// strs writes ss as a JSON array of strings.
func (p *payload) strs(ss []string) {
	p.list(ss == nil, len(ss), func(i int) { p.buf = relation.AppendJSONString(p.buf, ss[i]) })
}

func (p *payload) relation(cr *CheckpointRelation) {
	p.buf = relation.AppendJSONString(append(p.buf, `{"name":`...), cr.Name)
	p.buf = append(p.buf, `,"attrs":`...)
	p.list(cr.Attrs == nil, len(cr.Attrs), func(i int) {
		p.buf = relation.AppendJSONString(append(p.buf, `{"name":`...), cr.Attrs[i].Name)
		p.buf = append(relation.AppendJSONString(append(p.buf, `,"kind":`...), cr.Attrs[i].Kind), '}')
	})
	p.buf = append(p.buf, `,"rows":`...)
	if inst := cr.Inst; inst != nil {
		p.instance(inst)
	} else {
		p.list(cr.Rows == nil, len(cr.Rows), func(i int) { p.strs(cr.Rows[i]) })
		if len(cr.Dead) > 0 {
			p.buf = append(p.buf, `,"dead":`...)
			p.list(false, len(cr.Dead), func(i int) { p.buf = strconv.AppendInt(p.buf, int64(cr.Dead[i]), 10) })
		}
	}
	if len(cr.FDs) > 0 {
		p.buf = append(p.buf, `,"fds":`...)
		p.strs(cr.FDs)
	}
	if len(cr.Prefs) > 0 {
		p.buf = append(p.buf, `,"prefs":`...)
		p.list(false, len(cr.Prefs), func(i int) {
			p.buf = strconv.AppendInt(append(p.buf, '['), int64(cr.Prefs[i][0]), 10)
			p.buf = append(strconv.AppendInt(append(p.buf, ','), int64(cr.Prefs[i][1]), 10), ']')
		})
	}
	p.buf = append(p.buf, '}')
}

// instance writes every tuple of inst in ID order, then its dead IDs:
// what Rows and Dead hold for it.
func (p *payload) instance(inst *relation.Instance) {
	cols := make([]relation.Col, inst.Schema().Arity())
	for a := range cols {
		cols[a] = inst.Col(a)
	}
	p.list(false, inst.NumIDs(), func(id int) {
		p.list(false, len(cols), func(a int) { p.buf = relation.AppendJSONCell(p.buf, cols[a].Value(id)) })
	})
	if inst.Len() == inst.NumIDs() {
		return
	}
	p.buf = append(p.buf, `,"dead":`...)
	id := 0 // the next ID to test
	p.list(false, inst.NumIDs()-inst.Len(), func(int) {
		for inst.Live(id) {
			id++
		}
		p.buf = strconv.AppendInt(p.buf, int64(id), 10)
		id++
	})
}

// frameFile writes a frame's payload to f behind room for its header,
// keeping the payload's length and CRC32-C, so the header can be
// written last with one positioned write.
type frameFile struct {
	f   *os.File
	n   int64
	crc uint32
}

func (w *frameFile) Write(b []byte) (int, error) {
	w.crc = crc32.Update(w.crc, crcTable, b)
	w.n += int64(len(b))
	return w.f.Write(b)
}

// writeCheckpointTmp streams c into the checkpoint's temporary file as
// one CRC frame and fsyncs it. It takes no lock: its only shared state
// is the file, which one checkpoint at a time writes.
func (l *Log) writeCheckpointTmp(c *Checkpoint) error {
	f, err := os.OpenFile(filepath.Join(l.dir, "checkpoint.tmp"), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [frameHeaderLen]byte
	w := &frameFile{f: f}
	_, err = f.Write(hdr[:])
	if err == nil {
		err = WritePayload(w, c)
	}
	if err == nil && w.n > maxFrameLen {
		err = fmt.Errorf("checkpoint payload of %d bytes exceeds the frame limit", w.n)
	}
	if err == nil {
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(w.n))
		binary.LittleEndian.PutUint32(hdr[4:8], w.crc)
		_, err = f.WriteAt(hdr[:], 0)
	}
	if err == nil {
		err = syncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteCheckpoint durably installs a checkpoint covering the whole
// logged history (c.Seq must equal the last assigned sequence; the
// caller keeps appends out until Cut returns) and truncates the log:
// Cut, then the install it returns, on the calling goroutine.
func (l *Log) WriteCheckpoint(c *Checkpoint) error {
	install, err := l.Cut(c)
	if err != nil || install == nil {
		return err
	}
	return install()
}

// Cut begins a checkpoint of the logged history, which c must cover
// exactly (c.Seq is the last assigned sequence; a zero c.Epoch takes
// the log's). Under the log's lock it rotates to a fresh segment at
// c.Seq+1, so every later record lands there, and it returns the
// install: the function that writes c with no lock held, fsyncs it
// and then, under the lock again, renames it into place, syncs the
// directory and removes the files it subsumes. Until the install the
// pre-cut segment stays readable (ReadFrom serves it) and the flusher
// fsyncs it before the new one. One checkpoint runs at a time: a Cut
// waits for the install of the one before. A nil install with a nil
// error means nothing was logged since the last checkpoint.
//
// The install must be called, exactly once, and c must stay unchanged
// until it returns. A failure to write the checkpoint poisons the log.
func (l *Log) Cut(c *Checkpoint) (install func() error, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.pending {
		l.cond.Wait()
	}
	if l.err != nil {
		return nil, l.err
	}
	if l.closed {
		return nil, fmt.Errorf("wal: log is closed")
	}
	if c.Seq != l.seq.Load() {
		return nil, fmt.Errorf("wal: checkpoint at seq %d, log is at %d", c.Seq, l.seq.Load())
	}
	if c.Epoch == 0 {
		c.Epoch = l.epoch.Load()
	}
	if c.Seq == l.ckptSeq && l.bytesSinceCkpt == 0 && c.Epoch == l.ckptEpoch {
		return nil, nil // nothing logged (and no epoch change) since the last checkpoint
	}
	if err := l.rotateLocked(c.Seq + 1); err != nil {
		return nil, err
	}
	l.pending = true
	return func() error {
		err := l.writeCheckpointTmp(c)
		l.mu.Lock()
		defer l.mu.Unlock()
		defer l.endPendingLocked()
		switch {
		case err != nil:
			l.fail(err)
			return l.err
		case l.err != nil:
			return l.err
		case l.closed:
			return fmt.Errorf("wal: log closed before its checkpoint at seq %d was installed", c.Seq)
		}
		if err := l.renameCheckpointLocked(c); err != nil {
			return err
		}
		l.dropSubsumedLocked(c)
		return nil
	}, nil
}

// endPendingLocked lets the next checkpoint cut. Caller holds l.mu.
func (l *Log) endPendingLocked() {
	l.pending = false
	l.cond.Broadcast()
}

// rotateLocked makes a fresh, empty segment starting at newStart the
// active one. The old active segment becomes the pre-cut segment: no
// record is appended to it again, ReadFrom keeps serving it and the
// flusher fsyncs it, then the new segment's directory entry, before it
// first fsyncs the new segment — so no record above the cut is durable
// before every record below it. When the active segment already starts
// at newStart (nothing was appended since it was made: an epoch-only
// re-checkpoint at the same seq, e.g. promotion right after
// bootstrap), it is kept. Either way the log's growth counts from the
// cut. Caller holds l.mu; no checkpoint is pending.
func (l *Log) rotateLocked(newStart uint64) error {
	l.bytesSinceCkpt = 0
	if l.segStart == newStart {
		return nil
	}
	nf, err := os.OpenFile(filepath.Join(l.dir, segName(newStart)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		l.fail(err)
		return l.err
	}
	l.prevF, l.prevStart, l.prevEnds, l.prevSynced = l.f, l.segStart, l.ends, false
	l.f, l.segStart, l.ends = nf, newStart, nil
	return nil
}

// renameCheckpointLocked renames the fsynced temporary file into place
// as the checkpoint at c.Seq and syncs the directory. The checkpoint
// then covers every record up to c.Seq, so it releases the committers
// waiting on them. Caller holds l.mu.
func (l *Log) renameCheckpointLocked(c *Checkpoint) error {
	if err := os.Rename(filepath.Join(l.dir, "checkpoint.tmp"), filepath.Join(l.dir, ckptName(c.Seq))); err != nil {
		l.fail(err)
		return l.err
	}
	if err := syncDir(l.dir, syncFile); err != nil {
		l.fail(err)
		return l.err
	}
	l.ckptSeq, l.ckptEpoch = c.Seq, c.Epoch
	l.syncedSeq = max(l.syncedSeq, c.Seq)
	l.cond.Broadcast()
	return nil
}

// dropSubsumedLocked closes the pre-cut segment and removes every
// segment but the active one and every checkpoint but the one at
// c.Seq. Caller holds l.mu; the wait for an fsync in flight on the
// pre-cut segment releases it.
func (l *Log) dropSubsumedLocked(c *Checkpoint) {
	l.waitFlushLocked()
	if l.prevF != nil {
		l.prevF.Close()
		l.prevF, l.prevEnds = nil, nil
	}
	entries, err := os.ReadDir(l.dir)
	if err == nil {
		for _, e := range entries {
			if s, ok := parseSeqName(e.Name(), "wal-", ".log"); ok && s != l.segStart {
				os.Remove(filepath.Join(l.dir, e.Name()))
			}
			if s, ok := parseSeqName(e.Name(), "checkpoint-", ".ckpt"); ok && s != c.Seq {
				os.Remove(filepath.Join(l.dir, e.Name()))
			}
		}
	}
	syncDir(l.dir, syncFile) //nolint:errcheck // removals are cleanup, not correctness
}
