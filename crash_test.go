package prefcqa

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestCrashChild is not a test: it is the victim process of
// TestCrashRecoveryKillRestart, re-executing this test binary. It
// opens a durable DB under fsync=always and streams mutations,
// appending one line per *acknowledged* write to an ack file — a line
// is only written after the facade call returned, i.e. after the WAL
// record was fsynced. The parent SIGKILLs it mid-stream.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv("PREFCQA_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-test helper process; run via TestCrashRecoveryKillRestart")
	}
	db, err := Open(dir, WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.CreateRelation("R", IntAttr("K"), IntAttr("V"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddFD("K -> V"); err != nil {
		t.Fatal(err)
	}
	ack, err := os.OpenFile(os.Getenv("PREFCQA_CRASH_ACK"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}

	// Small keyspace so conflicts (and preferences over them) are
	// common; the deadline only matters if the parent dies without
	// killing us.
	deadline := time.Now().Add(60 * time.Second)
	var lastTwo [2]TupleID
	var recent [4]TupleID
	for i := 0; time.Now().Before(deadline); i++ {
		k, v := int64(i%8), int64(i%3)
		id, err := r.Insert(k, v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(ack, "insert %d %d %d %d\n", k, v, id, db.WriteVersion())
		lastTwo[i%2] = id
		recent[i%4] = id
		if i%7 == 6 && lastTwo[0] != lastTwo[1] {
			x, y := lastTwo[0], lastTwo[1]
			if x > y {
				x, y = y, x // low ≻ high keeps the preference set acyclic
			}
			if inst := r.Instance(); inst.Live(x) && inst.Live(y) {
				if err := r.Prefer(x, y); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(ack, "prefer %d %d %d\n", x, y, db.WriteVersion())
			}
		}
		if i%11 == 10 {
			// A multi-pair batch is one log record: once acknowledged,
			// every pair of it must survive the kill. Chaining the
			// distinct live IDs in ascending order keeps low ≻ high.
			inst := r.Instance()
			var live []TupleID
			for _, id := range recent {
				if inst.Live(id) && !slices.Contains(live, id) {
					live = append(live, id)
				}
			}
			slices.Sort(live)
			var batch [][2]TupleID
			for j := 1; j < len(live); j++ {
				batch = append(batch, [2]TupleID{live[j-1], live[j]})
			}
			if err := r.PreferPairs(batch); err != nil {
				t.Fatal(err)
			}
			for _, p := range batch {
				fmt.Fprintf(ack, "prefer %d %d %d\n", p[0], p[1], db.WriteVersion())
			}
		}
		if i%23 == 22 {
			if ok, err := r.Delete(id); err != nil {
				t.Fatal(err)
			} else if ok {
				fmt.Fprintf(ack, "delete %d %d\n", id, db.WriteVersion())
			}
		}
		if i%31 == 30 {
			// A multi-ID delete is one log record too: once acknowledged,
			// every live ID of it must stay dead — the repeated and the
			// possibly dead ones beside them are not logged at all.
			inst := r.Instance()
			var live []TupleID
			for _, id := range recent[:3] {
				if inst.Live(id) && !slices.Contains(live, id) {
					live = append(live, id)
				}
			}
			n, err := r.DeleteIDs([]TupleID{recent[0], recent[1], recent[2], recent[0]})
			if err != nil || n != len(live) {
				t.Fatalf("DeleteIDs = %d, %v; want %d", n, err, len(live))
			}
			for _, id := range live {
				fmt.Fprintf(ack, "delete %d %d\n", id, db.WriteVersion())
			}
		}
	}
}

// TestCrashRecoveryKillRestart is the crash-injection harness of
// ISSUE 6: it SIGKILLs a child process that is streaming durable
// writes under fsync=always, recovers the directory the corpse left
// behind, and demands that (a) the recovered write version is at
// least the last acknowledged one, (b) every acknowledged mutation is
// present with its exact tuple ID, and (c) the recovered database
// answers counts and repair enumerations bit-for-bit identically to
// an independent in-memory reconstruction.
func TestCrashRecoveryKillRestart(t *testing.T) {
	if os.Getenv("PREFCQA_CRASH_DIR") != "" {
		t.Skip("already inside the helper process")
	}
	base := t.TempDir()
	dir := filepath.Join(base, "db")
	ackPath := filepath.Join(base, "acked.log")

	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChild$")
	cmd.Env = append(os.Environ(),
		"PREFCQA_CRASH_DIR="+dir, "PREFCQA_CRASH_ACK="+ackPath)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	// Let the child make progress, then kill it mid-stream — SIGKILL,
	// no cleanup handler runs, the WAL is whatever hit the disk.
	want := 150
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(ackPath); err == nil &&
			strings.Count(string(data), "\n") >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	killed = true

	db, err := Open(dir, WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatalf("recovery after SIGKILL: %v", err)
	}
	defer db.Close()
	r, ok := db.Relation("R")
	if !ok {
		t.Fatal("relation R not recovered")
	}
	inst := r.Instance()
	r.mu.Lock()
	prefSet := make(map[[2]TupleID]bool, len(r.prefs))
	for _, p := range r.prefs {
		prefSet[p] = true
	}
	r.mu.Unlock()

	// Replay the ack stream. The final line may itself be torn (the
	// kill can land mid-write of the ack file); a complete line,
	// however, is a write the child saw acknowledged and must have
	// survived.
	ackData, err := os.ReadFile(ackPath)
	if err != nil {
		t.Fatal(err)
	}
	var acked, lastVersion uint64
	deleted := make(map[TupleID]bool)
	sc := bufio.NewScanner(strings.NewReader(string(ackData)))
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) > 0 && !strings.HasSuffix(string(ackData), "\n") {
		lines = lines[:len(lines)-1]
	}
	for _, line := range lines {
		switch f := strings.Fields(line); f[0] {
		case "delete":
			var id TupleID
			fmt.Sscan(f[1], &id)
			fmt.Sscan(f[2], &lastVersion)
			deleted[id] = true
		case "insert":
			var k, v int64
			var id TupleID
			fmt.Sscan(f[1], &k)
			fmt.Sscan(f[2], &v)
			fmt.Sscan(f[3], &id)
			fmt.Sscan(f[4], &lastVersion)
			tup, err := MakeTuple(k, v)
			if err != nil {
				t.Fatal(err)
			}
			if id >= inst.NumIDs() {
				t.Fatalf("acked insert id %d lost (only %d IDs recovered)", id, inst.NumIDs())
			}
			if got := inst.Tuple(id).String(); got != tup.String() {
				t.Fatalf("acked tuple %d = %s, want %s", id, got, tup)
			}
		case "prefer":
			var x, y TupleID
			fmt.Sscan(f[1], &x)
			fmt.Sscan(f[2], &y)
			fmt.Sscan(f[3], &lastVersion)
			if !prefSet[[2]TupleID{x, y}] {
				t.Fatalf("acked preference (%d, %d) lost", x, y)
			}
		}
		acked++
	}
	if acked == 0 {
		t.Fatal("no acknowledged writes to verify")
	}
	for id := range deleted {
		if inst.Live(id) {
			t.Fatalf("acked delete of %d lost: tuple live after recovery", id)
		}
	}
	if got := db.WriteVersion(); got < lastVersion {
		t.Fatalf("recovered write version %d < last acked %d", got, lastVersion)
	}
	t.Logf("verified %d acked writes; recovered version %d (last acked %d)",
		acked, db.WriteVersion(), lastVersion)

	// Bit-for-bit: the recovered DB must answer every family exactly
	// like an independent in-memory reconstruction of its state.
	assertSameResults(t, "kill-restart", db, mirrorDB(t, db))
}
