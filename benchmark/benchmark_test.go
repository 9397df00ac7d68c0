package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"prefcqa"
	"prefcqa/client"
)

// Everything here is fast and deterministic: no socket, no child, no
// timing. The workloads themselves are run by the benchmark command.

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestSameSeedSameInputs(t *testing.T) {
	inputs := func(seed int64) []byte {
		cl := newClusters(seed, 500)
		an := newAnalytic(seed, 400, 1500)
		return marshal(t, []any{
			cl.dataset(), cl.pointReads(seed*1000, 2000, cl.m), cl.groundReads(seed*1000+1, 2000, 400),
			an.dataset(), an.classes(),
		})
	}
	if !bytes.Equal(inputs(7), inputs(7)) {
		t.Fatal("the same seed gave different datasets or request streams")
	}
	if bytes.Equal(inputs(7), inputs(8)) {
		t.Fatal("different seeds gave identical inputs")
	}
}

func TestUndeterminedShareIsFixed(t *testing.T) {
	// The stride along the popularity order keeps the request-level
	// share of undetermined clusters the same for every seed.
	share := func(seed int64) float64 {
		cl := newClusters(seed, 1000)
		n := 0
		reqs := cl.pointReads(seed, 20000, cl.m)
		for _, p := range reqs {
			if r := cl.render(p); r.Answer == "undetermined" || (r.Kind == kindOpen && len(r.Bindings) == 0) {
				n++
			}
		}
		return float64(n) / float64(len(reqs))
	}
	a, b := share(1), share(2)
	if math.Abs(a-b) > 0.01 || a < 0.02 || a > 0.10 {
		t.Fatalf("undetermined request share %.3f vs %.3f", a, b)
	}
}

func TestTailQuantile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n     int
		limit float64
		want  float64 // the sample's values are their 1-based ranks
	}{
		{10000, 0.99, 9900}, // the named percentile, 100 samples beyond it
		{1100, 0.99, 1089},  // p99 with 11 beyond
		{1000, 0.99, 990},   // p99 with exactly 10 beyond: still allowed
		{200, 0.99, 190},    // too few for p99: the highest rank with 10 beyond
		{62, 0.90, 52},      // a short window's pass_p90 is really p84
		{15, 0.99, 8},       // never below the median
		{1, 0.99, 1},
	} {
		got, q := tailQuantile(seq(tc.n), tc.limit)
		if got != tc.want {
			t.Errorf("tailQuantile(n=%d, %.2f) = rank %.0f, want %.0f", tc.n, tc.limit, got, tc.want)
		}
		if want := tc.want / float64(tc.n); math.Abs(q-want) > 1e-9 {
			t.Errorf("tailQuantile(n=%d, %.2f) reports quantile %.4f, want %.4f", tc.n, tc.limit, q, want)
		}
	}
	if v, q := tailQuantile(nil, 0.99); v != 0 || q != 0 {
		t.Errorf("empty sample: %v %v", v, q)
	}
}

func TestTailIsWholeWindow(t *testing.T) {
	// 4400 samples, a quarter of them in a stall ten times slower: the
	// tail is the plain p99 of the window, stall included.
	var l latencies
	for i := 0; i < 4400; i++ {
		us := float64(i%1100 + 1)
		if i/1100 == 2 {
			us *= 10
		}
		l.us = append(l.us, us)
	}
	// 44 samples lie beyond p99, all from the stall (which runs to 11000).
	if m := l.tail(0.99, "us", 1); m.Value != 10560 || m.Samples != 4400 || math.Abs(m.Percentile-0.99) > 1e-9 {
		t.Errorf("tail = %+v, want the window's p99, 10560", m)
	}
	// Too few samples for p99: the highest percentile with ten beyond it.
	short := latencies{us: l.us[:200]}
	if m := short.tail(0.99, "us", 1); m.Value != 190 || m.Percentile != 0.95 {
		t.Errorf("short tail = %+v, want rank 190 of 200", m)
	}
	if m := (&latencies{}).tail(0.99, "us", 1); m.Value != 0 || m.Samples != 0 {
		t.Errorf("empty tail = %+v", m)
	}
	if m := l.p50("us", 1); m.Value != 710 {
		t.Errorf("p50 = %+v, want the whole-window median 710", m)
	}
}

func TestOverControl(t *testing.T) {
	// Reads 1..1001 µs against controls 1..501 µs: medians 501 and 251.
	var reads, ctl latencies
	for i := 1; i <= 1001; i++ {
		reads.us = append(reads.us, float64(i))
	}
	for i := 1; i <= 501; i++ {
		ctl.us = append(ctl.us, float64(i))
	}
	if m := reads.over(&ctl); m.Value != 501.0/251 || m.Percentile != 0.5 || m.Samples != 1001 || m.Unit != "ratio" {
		t.Errorf("over = %+v, want 501/251", m)
	}
	// A run without a single control has no ratio; the 0 makes the driver
	// refuse the line.
	if m := reads.over(&latencies{}); m.Value != 0 {
		t.Errorf("no controls: %+v", m)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(s)
	if q1 != 2.75 || q3 != 8.25 || median(s) != 5.5 {
		t.Fatalf("quartiles = %v, %v, median %v", q1, q3, median(s))
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles(sortedCopy([]float64{3, 1, 4, 1, 5}))
	if q1 != 1 || q3 != 4.5 {
		t.Fatalf("quartiles = %v, %v", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	us := func(start, end int64) (int64, int64) { return start * 1000, end * 1000 }
	mk := func(trace int, name, parent string, start, end int64) span {
		s, e := us(start, end)
		return span{Trace: trace, Name: name, Parent: parent, Start: s, End: e}
	}
	spans := []span{
		// Trace 0: 100 = 30 self + handler 70; handler 70 = 20 self + query 40 + snapshot 10.
		mk(0, "client.roundtrip", "", 0, 100),
		mk(0, "server.handler", "client.roundtrip", 100, 170),
		mk(0, "prefcqa.snapshot", "server.handler", 170, 180),
		mk(0, "prefcqa.query", "server.handler", 180, 220),
		// Trace 1: the deeper replay ran slower than the shallower one.
		mk(1, "client.roundtrip", "", 300, 350),
		mk(1, "server.handler", "client.roundtrip", 350, 420),
	}
	self, clamp := selfTimes(spans)
	want := map[string][]float64{
		"client.roundtrip": {30, 0},
		"server.handler":   {20, 70},
		"prefcqa.snapshot": {10},
		"prefcqa.query":    {40},
	}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Fatalf("%s: %v, want %v", name, got, w)
		}
		for i := range w {
			if math.Abs(got[i]-w[i]) > 1e-9 {
				t.Errorf("%s[%d] = %v, want %v", name, i, got[i], w[i])
			}
		}
	}
	if want := 1.0 / 6; math.Abs(clamp-want) > 1e-9 {
		t.Errorf("clamp share %v, want %v", clamp, want)
	}
}

// facadeOf loads a generated dataset into an in-process database.
func facadeOf(t *testing.T, ds dataset) *prefcqa.DB {
	t.Helper()
	db := prefcqa.New()
	for _, spec := range ds.Rels {
		rel, err := db.CreateRelation(spec.Name, prefcqa.IntAttr(spec.Attrs[0]), prefcqa.IntAttr(spec.Attrs[1]))
		if err != nil {
			t.Fatal(err)
		}
		if spec.FD != "" {
			if err := rel.AddFD(spec.FD); err != nil {
				t.Fatal(err)
			}
		}
		rows := make([]prefcqa.Tuple, len(spec.Rows))
		for i, row := range spec.Rows {
			rows[i] = tupleOf(row)
		}
		ids, err := rel.InsertRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if id != i {
				t.Fatalf("%s: row %d got id %d", spec.Name, i, id)
			}
		}
		for _, p := range spec.Prefs {
			if err := rel.Prefer(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// ask evaluates a generated request on the facade and reports how the
// reply differs from the oracle's expectation ("" when it agrees).
func ask(t *testing.T, db *prefcqa.DB, req request) string {
	t.Helper()
	fam, err := prefcqa.ParseFamily(req.Family)
	if err != nil {
		t.Fatal(err)
	}
	switch req.Kind {
	case kindQuery:
		ans, err := db.Query(fam, req.Text)
		if err != nil {
			t.Fatalf("%s: %v", req.Text, err)
		}
		if ans.String() != req.Answer {
			return req.Text + " [" + req.Family + "] = " + ans.String() + ", oracle says " + req.Answer
		}
	case kindOpen:
		bs, err := db.QueryOpen(fam, req.Text)
		if err != nil {
			t.Fatalf("%s: %v", req.Text, err)
		}
		wire := make([]map[string]string, len(bs))
		for i, b := range bs {
			wire[i] = map[string]string{}
			for name, v := range b {
				wire[i][name] = prefcqa.EncodeValue(v)
			}
		}
		if got := renderBindings(wire); !slices.Equal(got, req.Bindings) {
			return req.Text + " [" + req.Family + "] = " + strings.Join(got, " ") + ", oracle says " + strings.Join(req.Bindings, " ")
		}
	case kindCount:
		n, err := db.CountRepairs(fam, req.Text)
		if err != nil {
			t.Fatalf("count %s: %v", req.Text, err)
		}
		if n != req.Count {
			return "count differs"
		}
	}
	return ""
}

func TestOracleAgainstFacade(t *testing.T) {
	// 100 clusters, 200 tuples, every key, every shape, all five families.
	cl := newClusters(11, 100)
	db := facadeOf(t, cl.dataset())
	for _, fam := range []string{"rep", "local", "semiglobal", "global", "common"} {
		for k := 0; k < cl.m; k++ {
			for _, req := range []request{cl.ground(fam, k, 0), cl.ground(fam, k, 1), cl.quantified(fam, k), cl.openPoint(fam, k)} {
				if diff := ask(t, db, req); diff != "" {
					t.Errorf("cluster %d (undetermined=%v): %s", k, cl.undet[k], diff)
				}
			}
		}
	}

	// The analytic classes on a small instance of the same generator.
	an := newAnalytic(11, 400, 1500)
	adb := facadeOf(t, an.dataset())
	before := adb.QueryStats()
	for _, c := range an.classes() {
		if diff := ask(t, adb, c.req); diff != "" {
			t.Errorf("class %s: %s", c.req.Class, diff)
		}
		if c.executor != "" {
			rep, err := adb.ExplainPlan(c.req.Text)
			if err != nil {
				t.Fatal(err)
			}
			if plans := strings.Join(rep.Plans, "\n"); !strings.Contains(plans, "exec "+c.executor) {
				t.Errorf("class %s: planner did not pick %s:\n%s", c.req.Class, c.executor, plans)
			}
		}
	}
	after := adb.QueryStats()
	if after.ClosedFull-before.ClosedFull != 1 {
		t.Errorf("closed_full grew by %d, want 1 (the declined class)", after.ClosedFull-before.ClosedFull)
	}
	if after.OpenDirect-before.OpenDirect != 1 || after.OpenFallback != before.OpenFallback {
		t.Errorf("open path counters: %+v -> %+v", before, after)
	}
}

// roundTrips answers requests from a script, without a socket.
type roundTrips struct {
	script []string // "status body" per request, the last one repeating
	n      int
}

func (rt *roundTrips) RoundTrip(*http.Request) (*http.Response, error) {
	status, body, _ := strings.Cut(rt.script[min(rt.n, len(rt.script)-1)], " ")
	rt.n++
	code, _ := strconv.Atoi(status)
	return &http.Response{StatusCode: code, Header: http.Header{"Content-Type": {"application/json"}},
		Body: io.NopCloser(strings.NewReader(body))}, nil
}

func TestAwaitFollowerRetriesWhileAttaching(t *testing.T) {
	req := request{Kind: kindQuery, Family: "global", Text: "R(1, 0)", Answer: "true"}
	follower := func(script ...string) (*client.Client, *roundTrips) {
		rt := &roundTrips{script: script}
		return client.New("http://follower.invalid", client.WithHTTPClient(&http.Client{Transport: rt})), rt
	}
	// Not discovered, then registered but not attached, then caught up.
	c, rt := follower(`404 {"error":"unknown database"}`, `412 {"error":"min_version 7 is beyond"}`, `200 {"answer":"true","version":7}`)
	if err := awaitFollower(context.Background(), c, req, 7); err != nil || rt.n != 3 {
		t.Errorf("after %d requests: %v", rt.n, err)
	}
	// Any other failure, and a wrong answer, end the wait at once.
	c, rt = follower(`504 {"error":"deadline"}`)
	if err := awaitFollower(context.Background(), c, req, 7); err == nil || rt.n != 1 {
		t.Errorf("504: %d requests, %v", rt.n, err)
	}
	c, rt = follower(`200 {"answer":"false","version":7}`)
	if err := awaitFollower(context.Background(), c, req, 7); !errors.Is(err, errWrong) || rt.n != 1 {
		t.Errorf("wrong answer: %d requests, %v", rt.n, err)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "read_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "read_ops_per_s", Better: "higher", Bound: 0.10}
	fails := metricDef{Name: "fail_ratio", Better: "lower", Bound: 0}
	for _, tc := range []struct {
		d          metricDef
		base, head []float64
		want       string
	}{
		{lower, []float64{100}, []float64{109}, "ok"},
		{lower, []float64{100}, []float64{112}, "regressed"},
		{lower, []float64{100}, []float64{50}, "ok"},
		{higher, []float64{1000}, []float64{880}, "regressed"},
		{higher, []float64{1000}, []float64{1200}, "ok"},
		{lower, []float64{80, 100, 120, 140, 160}, []float64{200, 200, 200, 200, 200}, "unresolved"},
		{lower, []float64{99, 100, 101, 100, 100}, []float64{120, 121, 119, 120, 120}, "regressed"},
		{fails, []float64{0}, []float64{0}, "ok"},
		{fails, []float64{0}, []float64{0.001}, "regressed"},
	} {
		if _, got := verdict(tc.d, tc.base, tc.head); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.base, tc.head, got, tc.want)
		}
	}
}

func TestContractLine(t *testing.T) {
	r := newResult()
	for _, d := range gated {
		r.set(d.Name, metric{Value: 1.25, Unit: d.Unit, Samples: 3})
	}
	r.set("recovery_s", metric{Value: 0.4, Unit: "s"}) // not gated: must not leak into the line
	r.Attempted, r.Correct = 10, true
	line, err := contractLine(r, gated)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("contract line keys: %s", line)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(gated) {
		t.Fatalf("%d metrics on the line, want %d", len(metrics), len(gated))
	}
	for name, m := range metrics {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("%s: %v", name, m)
		}
	}
	delete(r.Metrics, "setup_s")
	if _, err := contractLine(r, gated); err == nil {
		t.Error("a missing metric must be an error, not a silent gap")
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the tables in metrics.go and
// workloads.go: the file the driver reads and the program's own
// definitions cannot drift apart.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program's window is %d", file.RunSeconds, runSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, program has %q: %q", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	g := gated
	if len(file.EndToEnd) != len(g) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d gated in the program", len(file.EndToEnd), len(g))
	}
	setup := false
	for i, d := range g {
		e := file.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound == nil || *e.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v, program has %+v", i, e, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the program", len(file.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		e := file.PerLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != nil {
			t.Errorf("per_layer %d: %+v, program has %+v", i, e, d)
		}
	}
}
