package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"prefcqa"
	"prefcqa/client"
	"prefcqa/internal/wal"
)

// TestReplSnapshotWireBytes: the bootstrap image is streamed into its
// envelope, and its bytes are what the server wrote when it marshalled
// the whole response: json.Encoder over ReplSnapshotResponse holding
// json.Marshal of the checkpoint. The fixture's names need every kind
// of escaping, and the checkpoint is spelled out from the writes.
func TestReplSnapshotWireBytes(t *testing.T) {
	ctx := context.Background()
	_, c := boot(t, replOptions(t))
	const db = "fix<&>"
	if err := c.CreateDB(ctx, db); err != nil {
		t.Fatal(err)
	}
	attrs := []prefcqa.WireAttr{{Name: "N", Kind: "name"}, {Name: "D", Kind: "name"}, {Name: "S", Kind: "int"}}
	if _, err := c.CreateRelation(ctx, db, "M", attrs...); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddFD(ctx, db, "M", "D -> N, S"); err != nil {
		t.Fatal(err)
	}
	names := []string{`it's`, `<b>&amp;`, `say "hi"`, `back\slash`, "line sep ", "ctl\x01\t\n", "é☃"}
	var rows [][]string
	var tuples []prefcqa.Tuple
	for i, n := range names {
		tup := row(t, n, names[(i+3)%len(names)], i*7-10)
		tuples = append(tuples, tup)
		cells := make([]string, len(tup))
		for a, v := range tup {
			cells[a] = prefcqa.EncodeValue(v)
		}
		rows = append(rows, cells)
	}
	if _, _, err := c.Insert(ctx, db, "M", tuples...); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prefer(ctx, db, "M", [2]int{0, 4}); err != nil {
		t.Fatal(err)
	}
	_, version, err := c.Delete(ctx, db, "M", 2)
	if err != nil {
		t.Fatal(err)
	}

	ckpt, err := json.Marshal(&wal.Checkpoint{Seq: version, Epoch: 1, Relations: []wal.CheckpointRelation{{
		Name:  "M",
		Attrs: attrs,
		Rows:  rows,
		Dead:  []int{2},
		FDs:   []string{"D -> N,S"},
		Prefs: [][2]int{{0, 4}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(client.ReplSnapshotResponse{DB: db, Seq: version, Epoch: 1, Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL() + client.PathReplSnapshot + "?db=" + "fix%3C%26%3E")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("snapshot: HTTP %d, Content-Type %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), got)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("snapshot body differs from the marshalled envelope:\n got %s\nwant %s", got, want.Bytes())
	}
}
