package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"prefcqa/internal/relation"
)

// encodeCheckpointFile is the reference checkpoint file: json.Marshal
// of the checkpoint in one CRC frame, what the log wrote before its
// encoder streamed.
func encodeCheckpointFile(c *Checkpoint) ([]byte, error) {
	payload, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	return appendFrame(nil, payload), nil
}

// specials are strings every escaping rule of encoding/json applies to,
// plus the wire syntax's own quote.
var specials = []string{
	"", "plain", `say "hi"`, `back\slash`, "<b>&amp;</b>", "line sep par",
	"tab\tnl\ncr\r\b\f", "\x00\x01\x1f\x7f", "bad\xffutf8\xe2\x82", "it's", "''", "é—☃\U0001F600",
	"�", "'\xc3'",
}

// randomCheckpoint generates a checkpoint twice: pinned, whose
// relations carry their instances (Inst), and the reference, whose
// relations carry the rows and dead IDs a capture used to render —
// what json.Marshal must write the same bytes for. Strings come from
// pool and specials.
func randomCheckpoint(t *testing.T, rng *rand.Rand, pool []string, epoch uint64) (pinned, ref *Checkpoint) {
	t.Helper()
	str := func() string {
		if len(pool) > 0 && rng.Intn(2) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		return specials[rng.Intn(len(specials))]
	}
	pinned = &Checkpoint{Seq: rng.Uint64() >> rng.Intn(64), Epoch: epoch}
	ref = &Checkpoint{Seq: pinned.Seq, Epoch: epoch}
	nrel := rng.Intn(4)
	if nrel == 0 && rng.Intn(2) == 0 {
		pinned.Relations, ref.Relations = []CheckpointRelation{}, []CheckpointRelation{}
	}
	for r := 0; r < nrel; r++ {
		attrs := make([]relation.Attribute, 1+rng.Intn(3))
		wattrs := make([]relation.WireAttr, len(attrs))
		for a := range attrs {
			attrs[a] = relation.IntAttr(string(rune('A' + a)))
			if rng.Intn(2) == 0 {
				attrs[a] = relation.NameAttr(attrs[a].Name)
			}
			wattrs[a] = relation.WireAttr{Name: str(), Kind: str()}
		}
		inst := relation.NewInstance(relation.MustSchema("R", attrs...))
		for range rng.Intn(20) {
			tup := make(relation.Tuple, len(attrs))
			for a, at := range attrs {
				if at.Kind == relation.KindInt {
					tup[a] = relation.Int((rng.Int63() >> rng.Intn(63)) * int64(1-2*rng.Intn(2)))
				} else {
					tup[a] = relation.Name(str())
				}
			}
			if _, _, err := inst.Insert(tup); err != nil {
				t.Fatal(err)
			}
		}
		for range rng.Intn(inst.NumIDs() + 1) {
			inst.Delete(rng.Intn(inst.NumIDs()))
		}
		cr := CheckpointRelation{Name: str(), Attrs: wattrs, Inst: inst}
		for range rng.Intn(4) {
			cr.FDs = append(cr.FDs, str())
		}
		for range rng.Intn(6) {
			cr.Prefs = append(cr.Prefs, [2]int{rng.Intn(40), rng.Intn(40)})
		}
		pinned.Relations = append(pinned.Relations, cr)
		cr.Inst = nil
		cr.Rows = make([][]string, inst.NumIDs())
		for id := range cr.Rows {
			cr.Rows[id] = relation.EncodeRow(inst.Tuple(id))
			if !inst.Live(id) {
				cr.Dead = append(cr.Dead, id)
			}
		}
		ref.Relations = append(ref.Relations, cr)
	}
	return pinned, ref
}

// checkEncoding holds WritePayload, for the pinned checkpoint and for
// its decoded form, and the checkpoint file, to the reference.
func checkEncoding(t *testing.T, pinned, ref *Checkpoint) {
	t.Helper()
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Checkpoint{pinned, ref} {
		var got bytes.Buffer
		if err := WritePayload(&got, c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("WritePayload differs from json.Marshal:\n got %s\nwant %s", got.Bytes(), want)
		}
	}
	l := &Log{dir: t.TempDir()}
	if err := l.writeCheckpointTmp(pinned); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(l.dir, "checkpoint.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	wantFile, err := encodeCheckpointFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, wantFile) {
		t.Fatalf("checkpoint file differs from the framed json.Marshal (%d vs %d bytes)", len(file), len(wantFile))
	}
	back, err := decodeCheckpoint(file)
	if err != nil {
		t.Fatal(err)
	}
	// Invalid UTF-8 decodes as U+FFFD, as it does from json.Marshal.
	var wantBack Checkpoint
	if err := json.Unmarshal(want, &wantBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, &wantBack) {
		t.Fatalf("decoded checkpoint %+v, want %+v", back, &wantBack)
	}
	if validUTF8(ref) && !reflect.DeepEqual(back, ref) {
		t.Fatalf("decoded checkpoint %+v, want the reference %+v", back, ref)
	}
}

// validUTF8 reports whether every string of c is valid UTF-8, so that
// decoding its JSON gives c back.
func validUTF8(c *Checkpoint) bool {
	ok := true
	str := func(s string) { ok = ok && utf8.ValidString(s) }
	for _, cr := range c.Relations {
		str(cr.Name)
		for _, a := range cr.Attrs {
			str(a.Name)
			str(a.Kind)
		}
		for _, row := range cr.Rows {
			for _, cell := range row {
				str(cell)
			}
		}
		for _, spec := range cr.FDs {
			str(spec)
		}
	}
	return ok
}

func TestWritePayloadMatchesMarshal(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pinned, ref := randomCheckpoint(t, rng, nil, uint64(rng.Intn(3)))
		checkEncoding(t, pinned, ref)
	}
	// Large enough to flush the buffer many times, mid-row included.
	rng := rand.New(rand.NewSource(0))
	pinned, ref := randomCheckpoint(t, rng, []string{strings.Repeat("<x'\"", 40000)}, 7)
	checkEncoding(t, pinned, ref)
}

// FuzzCheckpointEncode generates relations of int and name cells (the
// names drawn from the fuzzed pool and from strings with quotes,
// backslashes, <>&, U+2028/U+2029, control bytes and invalid UTF-8),
// with tombstones, up to three FDs, preference pairs and an epoch that
// may be 0: the streamed payload must be json.Marshal's, and the file
// must decode back to it.
func FuzzCheckpointEncode(f *testing.F) {
	f.Add(int64(1), false, "<b>&</b>\x00it's")
	f.Add(int64(2), true, " \xff\\\"")
	f.Add(int64(3), true, "")
	f.Fuzz(func(t *testing.T, seed int64, zeroEpoch bool, pool string) {
		rng := rand.New(rand.NewSource(seed))
		epoch := uint64(0)
		if !zeroEpoch {
			epoch = 1 + uint64(rng.Intn(5))
		}
		pinned, ref := randomCheckpoint(t, rng, strings.Split(pool, "|"), epoch)
		checkEncoding(t, pinned, ref)
	})
}

// TestOpenAfterLostPreCutTail: a crash after a checkpoint's cut can
// lose the unsynced tail of the pre-cut segment, whole records or a
// torn frame, while the new segment's entry survives, empty or with a
// torn frame of its own. Open must not append the next record into a
// segment named for a later sequence: it drops that segment, truncates
// the torn end and the log goes on at its real head in the pre-cut
// segment, across a reopen.
func TestOpenAfterLostPreCutTail(t *testing.T) {
	frame, err := EncodeRecord(Record{Seq: 4, Op: OpInsert, Rel: "r", Rows: [][]string{{"4"}}})
	if err != nil {
		t.Fatal(err)
	}
	torn := frame[:len(frame)/2]
	for _, tc := range []struct {
		name              string
		preCutEnd, newSeg []byte // appended to the pre-cut segment; the new segment's content
	}{
		{"whole records lost", nil, nil},
		{"torn pre-cut frame", torn, nil},
		{"zero-filled pre-cut frame", make([]byte, len(frame)), nil},
		{"torn frame in the new segment", nil, torn},
		{"torn frames in both", torn, torn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, _ := mustOpen(t, dir, Options{Policy: SyncNever})
			for i := uint64(1); i <= 3; i++ {
				if _, err := l.Append(rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// Records 4 and 5 were lost; the cut at 5 made wal-…06.
			f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.preCutEnd); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if err := os.WriteFile(filepath.Join(dir, segName(6)), tc.newSeg, 0o644); err != nil {
				t.Fatal(err)
			}
			l, _, tail := mustOpen(t, dir, Options{Policy: SyncNever})
			if len(tail) != 3 || l.Seq() != 3 {
				t.Fatalf("recovered %d records, head %d; want 3, 3", len(tail), l.Seq())
			}
			if _, err := os.Stat(filepath.Join(dir, segName(6))); !os.IsNotExist(err) {
				t.Fatalf("the segment past the head is still there (%v)", err)
			}
			if _, err := l.Append(rec(4)); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l, _, tail = mustOpen(t, dir, Options{Policy: SyncNever})
			defer l.Close()
			if len(tail) != 4 || tail[3].Seq != 4 {
				t.Fatalf("after a reopen: %d records; want 4, the last at seq 4", len(tail))
			}
			if recs, err := l.ReadFrom(1, 10); err != nil || len(recs) != 4 || recs[3].Seq != 4 {
				t.Fatalf("ReadFrom(1) = %d records, %v; want records 1 to 4", len(recs), err)
			}
		})
	}
}

// TestOpenAfterInterruptedCut: the directories a crash leaves between
// a cut's rotation and its rename, with the pre-cut segment intact
// (here the empty segment of a pristine log) — Open recovers them, and
// keeps the cut's empty segment as the active one when it starts right
// after the head.
func TestOpenAfterInterruptedCut(t *testing.T) {
	for _, segs := range [][]uint64{{1, 43}, {1, 43, 44}} {
		dir := t.TempDir()
		for _, s := range segs {
			if err := os.WriteFile(filepath.Join(dir, segName(s)), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, c, tail := mustOpen(t, dir, Options{Policy: SyncNever})
		if c != nil || len(tail) != 0 || l.Seq() != 0 {
			t.Fatalf("segments %v: checkpoint %v, %d records, head %d; want an empty log", segs, c, len(tail), l.Seq())
		}
		if _, err := l.Append(rec(1)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, _, tail = mustOpen(t, dir, Options{Policy: SyncNever})
		l.Close()
		if len(tail) != 1 || tail[0].Seq != 1 {
			t.Fatalf("segments %v: after a reopen %d records; want record 1", segs, len(tail))
		}
	}
}

// TestInstallCheckpointFailureReopens fails each disk wait of a
// follower's bootstrap through the syncFile seam: the checkpoint's
// fsync, then the directory's after its rename. The log is poisoned,
// and the directory reopens: pristine before the rename, at the image
// after it, and a pristine one takes the image on a second try.
func TestInstallCheckpointFailureReopens(t *testing.T) {
	image := func() *Checkpoint {
		return &Checkpoint{Seq: 42, Epoch: 2, Relations: []CheckpointRelation{{Name: "r", Rows: [][]string{{"x"}}}}}
	}
	for _, tc := range []struct {
		name    string
		fail    func(dir, name string) bool
		durable bool // the image survives the failure
	}{
		{"checkpoint fsync", func(dir, name string) bool { return filepath.Base(name) == "checkpoint.tmp" }, false},
		{"directory fsync", func(dir, name string) bool { return name == dir }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, _ := mustOpen(t, dir, Options{Policy: SyncNever})
			boom := errors.New("disk full")
			restore := SetSyncFile(func(f *os.File) error {
				if tc.fail(dir, f.Name()) {
					return boom
				}
				return f.Sync()
			})
			err := l.InstallCheckpoint(image())
			restore()
			if !errors.Is(err, boom) {
				t.Fatalf("InstallCheckpoint = %v, want the failed fsync", err)
			}
			if err := l.Close(); !errors.Is(err, boom) {
				t.Fatalf("Close = %v, want the sticky failure", err)
			}
			l, c, tail := mustOpen(t, dir, Options{Policy: SyncNever})
			if len(tail) != 0 {
				t.Fatalf("reopened with %d records, want none", len(tail))
			}
			if tc.durable {
				if c == nil || c.Seq != 42 || l.Seq() != 42 {
					t.Fatalf("reopened at checkpoint %v, head %d; want the image at 42", c, l.Seq())
				}
			} else {
				if c != nil || l.Seq() != 0 {
					t.Fatalf("reopened at checkpoint %v, head %d; want a pristine log", c, l.Seq())
				}
				if err := l.InstallCheckpoint(image()); err != nil {
					t.Fatal(err)
				}
			}
			r := rec(43)
			r.Seq, r.Epoch = 43, 2
			if err := l.AppendExact(r); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l, c, tail = mustOpen(t, dir, Options{Policy: SyncNever})
			defer l.Close()
			if c == nil || c.Seq != 42 || len(tail) != 1 || tail[0].Seq != 43 {
				t.Fatalf("after a reopen: checkpoint %v and %d records; want the image at 42 and record 43", c, len(tail))
			}
		})
	}
}
