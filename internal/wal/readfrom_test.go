package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// segmentRecords decodes every segment file of dir from disk, in name
// order: the reference ReadFrom is compared against.
func segmentRecords(t *testing.T, dir string) []Record {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var all []Record
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, _, err := DecodeSegment(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		all = append(all, recs...)
	}
	return all
}

// checkReadFrom asserts, for every start position and a few batch
// sizes, that ReadFrom answers exactly what decoding the files gives:
// ErrCompacted at or below the checkpoint, the records [s, s+m) above
// it, nothing past the head.
func checkReadFrom(t *testing.T, l *Log, step string) {
	t.Helper()
	head, ckpt, _ := l.Position()
	onDisk := segmentRecords(t, l.Dir())
	for s := uint64(1); s <= head+2; s++ {
		for _, m := range []int{1, 3, 0} {
			got, err := l.ReadFrom(s, m)
			if s <= ckpt {
				if !errors.Is(err, ErrCompacted) {
					t.Fatalf("%s: ReadFrom(%d, %d) under checkpoint %d: err = %v, want ErrCompacted", step, s, m, ckpt, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: ReadFrom(%d, %d): %v", step, s, m, err)
			}
			var want []Record
			for _, r := range onDisk {
				if r.Seq >= s && (m == 0 || r.Seq < s+uint64(m)) {
					want = append(want, r)
				}
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s: ReadFrom(%d, %d) = %+v, the segment files hold %+v", step, s, m, got, want)
			}
		}
	}
}

// TestReadFromMatchesSegmentFiles is the offset index's defining
// property: after any interleaving of appends, replicated appends,
// checkpoint rotations, a bootstrap install and reopenings (clean, or
// over a torn tail that Open truncates), ReadFrom through the index
// equals a decode of the segment files.
func TestReadFromMatchesSegmentFiles(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		l, _, _ := mustOpen(t, dir, Options{Policy: SyncNever})
		if rng.Intn(2) == 0 {
			if err := l.InstallCheckpoint(&Checkpoint{Seq: uint64(1 + rng.Intn(40))}); err != nil {
				t.Fatal(err)
			}
			checkReadFrom(t, l, fmt.Sprintf("seed %d: install", seed))
		}
		for op := 0; op < 40; op++ {
			var step string
			switch k := rng.Intn(10); {
			case k < 4:
				step = "Append"
				if _, err := l.Append(rec(l.Seq() + 1)); err != nil {
					t.Fatal(err)
				}
			case k < 7:
				step = "AppendExact"
				r := rec(l.Seq() + 1)
				r.Seq, r.Epoch = l.Seq()+1, l.Epoch()
				if err := l.AppendExact(r); err != nil {
					t.Fatal(err)
				}
			case k < 8:
				step = "WriteCheckpoint"
				if err := l.WriteCheckpoint(&Checkpoint{Seq: l.Seq()}); err != nil {
					t.Fatal(err)
				}
			default:
				step = "reopen"
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if k == 9 {
					step = "reopen over a torn tail"
					frame, err := EncodeRecord(rec(l.Seq() + 1))
					if err != nil {
						t.Fatal(err)
					}
					f, err := os.OpenFile(filepath.Join(dir, segName(l.segStart)), os.O_WRONLY|os.O_APPEND, 0o644)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write(frame[:1+rng.Intn(len(frame)-1)]); err != nil {
						t.Fatal(err)
					}
					if err := f.Close(); err != nil {
						t.Fatal(err)
					}
				}
				l, _, _ = mustOpen(t, dir, Options{Policy: SyncNever})
			}
			checkReadFrom(t, l, fmt.Sprintf("seed %d op %d: %s", seed, op, step))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// tailLog returns a log whose head is seq 20000 with segLen records in
// its active segment (the rest installed as a checkpoint image), so
// the tail record is byte-identical whatever the segment's length.
func tailLog(tb testing.TB, segLen int) *Log {
	tb.Helper()
	const head = 20000
	l, _, _, err := Open(tb.TempDir(), Options{Policy: SyncNever, CheckpointBytes: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	if segLen < head {
		if err := l.InstallCheckpoint(&Checkpoint{Seq: head - uint64(segLen)}); err != nil {
			tb.Fatal(err)
		}
	}
	for l.Seq() < head {
		if _, err := l.Append(rec(l.Seq() + 1)); err != nil {
			tb.Fatal(err)
		}
	}
	return l
}

// TestReadFromCostIndependentOfSegmentLength pins the point of the
// index: shipping the one newest record costs the same allocations and
// bytes behind 100 records as behind 20000 (a whole-segment decode
// costs 200 times more there).
func TestReadFromCostIndependentOfSegmentLength(t *testing.T) {
	cost := func(segLen int) (allocs float64, bytes uint64) {
		l := tailLog(t, segLen)
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() {
			if recs, err := l.ReadFrom(l.Seq(), 1); err != nil || len(recs) != 1 {
				t.Fatalf("ReadFrom(head, 1) = %d records, err %v", len(recs), err)
			}
		})
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	}
	shortAllocs, shortBytes := cost(100)
	longAllocs, longBytes := cost(20000)
	// Allocation counts are exact; the byte average also picks up the
	// runtime's own background allocations, hence the small slack.
	if shortAllocs != longAllocs || longBytes > shortBytes+128 {
		t.Fatalf("1-record tail read: %v allocs / %d B behind 100 records, %v allocs / %d B behind 20000",
			shortAllocs, shortBytes, longAllocs, longBytes)
	}
}

var sinkRecords []Record

func BenchmarkReadFromTail(b *testing.B) {
	for _, segLen := range []int{100, 20000} {
		b.Run(fmt.Sprintf("segment=%d", segLen), func(b *testing.B) {
			l := tailLog(b, segLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, err := l.ReadFrom(l.Seq(), 1)
				if err != nil || len(recs) != 1 {
					b.Fatalf("ReadFrom(head, 1) = %d records, err %v", len(recs), err)
				}
				sinkRecords = recs
			}
		})
	}
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }
