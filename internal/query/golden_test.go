package query

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/relation"
)

// TestExplainGolden pins the EXPLAIN text: Describe() and ActRows of
// every plan the executor, acyclic and peel corpora run on
// fuzzPlanModel, plain and with every third tuple ID hidden, are
// compared byte for byte with testdata/explain.golden. A change to
// the planner or an executor that is meant to keep plans, estimates,
// executor choices and row counts where they are leaves the file
// alone; one that means to move them deletes the file, re-runs the
// test (which writes it and fails) and reviews the diff.
func TestExplainGolden(t *testing.T) {
	plain := fuzzPlanModel()
	hidden := DBModel{DB: plain.DB, Subsets: map[string]*bitset.Set{}}
	for _, rel := range plain.Relations() {
		inst, _, _ := plain.Backing(rel)
		sub := bitset.New(inst.NumIDs())
		inst.RangeIDs(func(id relation.TupleID) bool {
			if id%3 != 2 {
				sub.Add(id)
			}
			return true
		})
		hidden.Subsets[rel] = sub
	}

	var got bytes.Buffer
	for _, view := range []struct {
		name string
		m    Model
	}{{"plain", plain}, {"subset", hidden}} {
		for _, src := range slices.Concat(executorCorpus, acyclicCorpus, peelCorpus) {
			res, tr, err := EvalTrace(MustParse(src), view.m)
			if err != nil {
				t.Fatalf("%s: %s: %v", view.name, src, err)
			}
			fmt.Fprintf(&got, "## %s: %s => %v\n", view.name, src, res)
			for _, e := range tr.Execs {
				fmt.Fprintf(&got, "%s\n  ActRows %v\n", e.Describe(), e.ActRows)
			}
		}
	}

	path := filepath.Join("testdata", "explain.golden")
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was absent and has been written: review it and run the test again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines rendered, %d in the file", path, len(gl), len(wl))
	}
}
