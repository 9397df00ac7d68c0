package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"prefcqa/client"
)

// config is what the command line fixes for a run.
type config struct {
	seed    int64
	clients int
	warmup  time.Duration
	measure time.Duration
	setups  int // set-ups per run; setup_s is their median
}

// result is what one workload run reports.
type result struct {
	Metrics   map[string]metric `json:"metrics"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Correct   bool              `json:"correct"`
	Notes     []string          `json:"notes,omitempty"`
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

func (r *result) set(name string, m metric) { r.Metrics[name] = m }

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// finish folds the tally into the result. A healthy run has no failed
// request at all, so any failure makes the run incorrect.
func (r *result) finish(t *tally) {
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Correct = t.failed == 0 && t.attempted > 0
	r.set("fail_ratio", metric{Value: t.failRatio(), Unit: "ratio"})
	for _, s := range t.samples {
		r.note("failure: %s", s)
	}
	if t.shed > 0 {
		r.note("%d requests were shed or timed out (503/504)", t.shed)
	}
}

// workload is one entry of the fixed workload list. Later issues refer
// to these names.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, e *env, cfg config) (*result, error)
}

var workloads = []workload{
	{"point_read", "Zipf point reads on a clean pin: client, net, server, parse and input assembly do most of the work; executor changes must show ~nothing", runPointRead},
	{"analytic_read", "one analyst passing over six heavy query classes: executors, verification and core do nearly all the work; serving-path changes must show nothing", runAnalyticRead},
	{"write_mix", "durable update batches with read-your-writes: reads land on invalidated pins, writes pay index, WAL, group fsync; ends with kill and recovery. Also prints write_*, recovery_s (README)", runWriteMix},
	{"replica_lag", "primary plus follower: insert, ack, follower read at that version; only here are replication and the WAL stream on the blocking path. Also prints visible_lag_*, write_* (README)", runReplicaLag},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// passRequests is how many consecutive requests of one client make a
// "pass" in the serving workloads: the unit a caller that renders one
// page out of many lookups waits for.
const passRequests = 200

// controlEvery is how many reads of a serving client lie between two
// controls.
const controlEvery = 4

// setupMedian runs setup cfg.setups times, tearing down all but the
// last, and reports the median set-up time; the last set-up is the one
// the run then measures against.
func setupMedian[T any](cfg config, setup func() (T, error), teardown func(T)) (T, metric, error) {
	var keep T
	times := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return keep, metric{}, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			teardown(s)
		} else {
			keep = s
		}
	}
	return keep, metric{Value: median(times), Unit: "s", Samples: len(times), Percentile: 0.5}, nil
}

// served is one loaded prefserve child with the connection pool to it.
type served struct {
	child *child
	conn  *conn
	dir   string // data directory, "" when in-memory
}

func (s served) stop() {
	s.conn.close()
	s.child.stop()
}

// durableArgs are the stock flags of a durable server.
func durableArgs(dir string) []string { return []string{"-data-dir", dir, "-fsync", "group"} }

// serve sets a server up cfg.setups times and keeps the last: child
// start, schema, bulk load, preferences, then every warm request
// answered correctly once, which pays the conflict graph, the priority
// and the lazily built indexes.
func serve(ctx context.Context, e *env, cfg config, durable bool, ds dataset, warm []request) (served, metric, error) {
	return setupMedian(cfg, func() (served, error) {
		var s served
		var args []string
		if durable {
			dir, err := e.dataDir("primary")
			if err != nil {
				return s, err
			}
			s.dir, args = dir, durableArgs(dir)
		}
		ch, err := e.startServer(args...)
		if err != nil {
			return s, err
		}
		s.child, s.conn = ch, dial(ch.url, cfg.clients)
		err = s.conn.CreateDB(ctx, dbName)
		if err == nil {
			_, err = load(ctx, s.conn.Client, ds)
		}
		if err != nil {
			s.stop()
			return s, fmt.Errorf("load: %w", err)
		}
		for _, req := range warm {
			if err := issue(ctx, s.conn.Client, req, 0); err != nil {
				s.stop()
				return s, fmt.Errorf("first answer: %w", err)
			}
		}
		return s, nil
	}, served.stop)
}

func rssOf(children ...*child) (metric, error) {
	total := 0.0
	for _, c := range children {
		mb, err := c.rssMB()
		if err != nil {
			return metric{}, err
		}
		total += mb
	}
	return metric{Value: total, Unit: "MB"}, nil
}

func mergeAll(ls []latencies) *latencies {
	var all latencies
	for i := range ls {
		all.merge(&ls[i])
	}
	return &all
}

// setReads reports the read metrics every workload has: the window's
// own figures, and the one the gate reads, the median as a multiple of
// the median control taken between the reads.
func (r *result) setReads(read, ctl *latencies, wall time.Duration) {
	r.set("read_p50_us", read.p50("us", 1))
	r.set("read_p99_us", read.tail(0.99, "us", 1))
	r.set("read_ops_per_s", metric{Value: float64(len(read.us)) / wall.Seconds(), Unit: "1/s", Samples: len(read.us)})
	r.set("control_p50_us", ctl.p50("us", 1))
	r.set("read_p50_rel", read.over(ctl))
}

func (r *result) setPasses(pass, ctl *latencies) {
	r.set("pass_p50_ms", pass.p50("ms", 1e3))
	r.set("pass_p90_ms", pass.tail(0.90, "ms", 1e3))
	r.set("pass_p50_rel", pass.over(ctl))
}

// servingClusters is the size of the serving dataset: 100 000
// two-tuple clusters, far above the two clients.
const servingClusters = 100000

// streamLen is how many requests are generated per client up front;
// a client that outruns its stream starts over.
const streamLen = 200000

func runPointRead(ctx context.Context, e *env, cfg config) (*result, error) {
	cl := newClusters(cfg.seed, servingClusters)
	sv, setup, err := serve(ctx, e, cfg, false, cl.dataset(), []request{cl.ground(servingFamily, int(cl.keyOf[0]), 0)})
	if err != nil {
		return nil, err
	}
	defer sv.stop()

	streams := make([][]pointReq, cfg.clients)
	for i := range streams {
		streams[i] = cl.pointReads(cfg.seed*1000+int64(i), streamLen, cl.m)
	}
	res := newResult()
	res.set("setup_s", setup)
	var t tally
	reads := make([]latencies, cfg.clients)
	ctls := make([]latencies, cfg.clients)
	passes := make([]latencies, cfg.clients)
	next := make([]int, cfg.clients)
	wall := window(ctx, cfg.clients, cfg.warmup, cfg.measure, &t, func(c int, measuring bool) {
		passStart := time.Now()
		var inControl time.Duration
		ok := true
		for i := 0; i < passRequests; i++ {
			if i%controlEvery == 0 {
				inControl += control(ctx, sv.conn.Client, &t, measuring, &ctls[c])
			}
			req := cl.render(streams[c][next[c]%streamLen])
			next[c]++
			t0 := time.Now()
			err := issue(ctx, sv.conn.Client, req, 0)
			if measuring {
				t.record(1, err)
				if err == nil {
					reads[c].add(time.Since(t0))
				}
			}
			ok = ok && err == nil
		}
		if measuring && ok {
			passes[c].add(time.Since(passStart) - inControl)
		}
	})
	ctl := mergeAll(ctls)
	res.setReads(mergeAll(reads), ctl, wall)
	res.setPasses(mergeAll(passes), ctl)
	rss, err := rssOf(sv.child)
	if err != nil {
		return nil, err
	}
	res.set("server_rss_mb", rss)
	res.finish(&t)
	return res, nil
}

// Sizes of the analytic dataset: large enough that a request of every
// class but count costs 10-80ms, against 0.3-0.5ms of serving path, and
// small enough that a 20s window still holds about sixty passes.
const (
	analyticRows     = 4000
	analyticClusters = 16000
)

func runAnalyticRead(ctx context.Context, e *env, cfg config) (*result, error) {
	an := newAnalytic(cfg.seed, analyticRows, analyticClusters)
	classes := an.classes()
	warm := make([]request, len(classes))
	for i, c := range classes {
		warm[i] = c.req
	}
	cfg.clients = 1 // one analyst
	sv, setup, err := serve(ctx, e, cfg, false, an.dataset(), warm)
	if err != nil {
		return nil, err
	}
	defer sv.stop()
	res := newResult()
	res.set("setup_s", setup)
	var t tally

	// The planner must route each join class to the executor the class
	// exists to measure.
	for _, c := range classes {
		if c.executor == "" {
			continue
		}
		rctx, cancel := reqCtx(ctx)
		rep, err := sv.conn.Explain(rctx, dbName, c.req.Text)
		cancel()
		if err == nil && !strings.Contains(strings.Join(rep.Plans, "\n"), "exec "+c.executor) {
			err = fmt.Errorf("%w: class %s did not run on the %s executor:\n%s", errWrong, c.req.Class, c.executor, strings.Join(rep.Plans, "\n"))
		}
		t.record(1, err)
	}

	before, err := dbStats(ctx, sv.conn)
	if err != nil {
		return nil, err
	}
	issued := make(map[string]int64)
	var reads, ctl, passes latencies
	perClass := make(map[string]*latencies)
	for _, c := range classes {
		perClass[c.req.Class] = &latencies{}
	}
	wall := window(ctx, 1, cfg.warmup, cfg.measure, &t, func(_ int, measuring bool) {
		passStart := time.Now()
		var inControl time.Duration
		ok := true
		for _, c := range classes {
			for i := 0; i < c.reps; i++ {
				inControl += control(ctx, sv.conn.Client, &t, measuring, &ctl)
				t0 := time.Now()
				err := issue(ctx, sv.conn.Client, c.req, 0)
				issued[c.req.Class]++
				if measuring {
					t.record(1, err)
					if err == nil {
						reads.add(time.Since(t0))
						perClass[c.req.Class].add(time.Since(t0))
					}
				}
				ok = ok && err == nil
			}
		}
		if measuring && ok {
			passes.add(time.Since(passStart) - inControl)
		}
	})
	after, err := dbStats(ctx, sv.conn)
	if err != nil {
		return nil, err
	}
	// Path counters over warm-up plus window: every declined query took
	// the whole-database fallback, nothing else did, and every open
	// query was enumerated directly on the greedy spine.
	if got, want := after.ClosedFull-before.ClosedFull, issued["declined"]; got != want {
		t.record(1, fmt.Errorf("%w: closed_full grew by %d over %d declined queries", errWrong, got, want))
	}
	if got, want := after.OpenDirect-before.OpenDirect, issued["open_range"]; got != want || after.OpenFallback != before.OpenFallback {
		t.record(1, fmt.Errorf("%w: open_direct grew by %d (fallback by %d) over %d open queries", errWrong, got, after.OpenFallback-before.OpenFallback, want))
	}
	res.setReads(&reads, &ctl, wall)
	res.setPasses(&passes, &ctl)
	// A percentile over the requests of six classes fifty times apart
	// names a class, not a latency: the median request is the CountRepairs
	// class's p80. What the gate reads as this workload's read is the mean
	// request of a pass, so the median pass over its request count.
	perPass := 0
	for _, c := range classes {
		perPass += c.reps
	}
	perRequest := passes.over(&ctl)
	perRequest.Value /= float64(perPass)
	res.set("read_p50_rel", perRequest)
	total := sum(passes.us)
	for _, c := range classes {
		l := perClass[c.req.Class]
		share := sum(l.us)
		res.note("class %-10s x%-2d p50 %8.3f ms, %4.1f%% of pass time", c.req.Class, c.reps, l.p50("ms", 1e3).Value, 100*share/total)
	}
	rss, err := rssOf(sv.child)
	if err != nil {
		return nil, err
	}
	res.set("server_rss_mb", rss)
	res.finish(&t)
	return res, nil
}

func dbStats(ctx context.Context, c *conn) (client.DBStats, error) {
	ctx, cancel := reqCtx(ctx)
	defer cancel()
	st, err := c.Stats(ctx)
	if err != nil {
		return client.DBStats{}, err
	}
	return st.DBs[dbName], nil
}

// writeShare is the part of the key space (by popularity rank, from
// the cold end) that write_mix mutates. Zipf reads stay on the other
// ranks, so every read has one fixed expected answer while the pin it
// lands on is still invalidated by the writes.
const writeShare = 0.2

// writer is one write_mix client's private state.
type writer struct {
	keys    []int // oriented clusters of this client's own range
	pos     int
	prev    int // previous challenger's tuple id, -1 before the first
	lastKey int // cluster of the live challenger
	lastVal int
	goneKey int // cluster and value of the challenger deleted last
	goneVal int
	acked   uint64 // last acknowledged write-version
}

func runWriteMix(ctx context.Context, e *env, cfg config) (*result, error) {
	cl := newClusters(cfg.seed, servingClusters)
	sv, setup, err := serve(ctx, e, cfg, true, cl.dataset(), []request{cl.ground(servingFamily, int(cl.keyOf[0]), 0)})
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			sv.stop()
		}
	}()

	span := int(float64(cl.m) * (1 - writeShare))
	ws := make([]*writer, cfg.clients)
	streams := make([][]pointReq, cfg.clients)
	for i := range ws {
		ws[i] = &writer{prev: -1, goneKey: -1}
		for rank := span + i; rank < cl.m; rank += cfg.clients {
			if k := int(cl.keyOf[rank]); !cl.undet[k] {
				ws[i].keys = append(ws[i].keys, k)
			}
		}
		streams[i] = cl.groundReads(cfg.seed*1000+int64(i), streamLen, span)
	}
	res := newResult()
	res.set("setup_s", setup)
	var t tally
	reads := make([]latencies, cfg.clients)
	writes := make([]latencies, cfg.clients)
	ctls := make([]latencies, cfg.clients)
	passes := make([]latencies, cfg.clients)
	next := make([]int, cfg.clients)
	wall := window(ctx, cfg.clients, cfg.warmup, cfg.measure, &t, func(c int, measuring bool) {
		w := ws[c]
		control(ctx, sv.conn.Client, &t, measuring, &ctls[c])
		passStart := time.Now()
		ok := true
		// timed runs one request, records it when measuring and reports
		// whether the iteration may go on.
		timed := func(into *latencies, op func(context.Context) error) bool {
			rctx, cancel := reqCtx(ctx)
			t0 := time.Now()
			err := op(rctx)
			cancel()
			if measuring {
				t.record(1, err)
				if err == nil {
					into.add(time.Since(t0))
				}
			}
			ok = ok && err == nil
			return err == nil
		}
		k := w.keys[w.pos%len(w.keys)]
		val := 2 + w.pos/len(w.keys)
		w.pos++
		var id int
		if !timed(&writes[c], func(rctx context.Context) error {
			ids, v, err := sv.conn.Insert(rctx, dbName, "R", tupleOf([2]int64{int64(k), int64(val)}))
			if err == nil {
				id, w.acked = ids[0], v
			}
			return err
		}) {
			return
		}
		if !timed(&writes[c], func(rctx context.Context) error {
			v, err := sv.conn.Prefer(rctx, dbName, "R", [2]int{anchorID(k), id})
			if err == nil {
				w.acked = v
			}
			return err
		}) {
			return
		}
		if w.prev >= 0 {
			if !timed(&writes[c], func(rctx context.Context) error {
				n, v, err := sv.conn.Delete(rctx, dbName, "R", w.prev)
				if err == nil && n != 1 {
					err = fmt.Errorf("%w: delete of challenger %d removed %d tuples", errWrong, w.prev, n)
				}
				if err == nil {
					w.acked = v
					w.goneKey, w.goneVal = w.lastKey, w.lastVal
				}
				return err
			}) {
				return
			}
		}
		w.prev, w.lastKey, w.lastVal = id, k, val
		// Read-your-writes: the anchor still wins its cluster at the
		// version just acknowledged.
		timed(&reads[c], func(context.Context) error {
			return issue(ctx, sv.conn.Client, cl.ground(servingFamily, k, 0), w.acked)
		})
		for i := 0; i < 2; i++ {
			req := cl.render(streams[c][next[c]%streamLen])
			next[c]++
			timed(&reads[c], func(context.Context) error { return issue(ctx, sv.conn.Client, req, 0) })
		}
		if measuring && ok {
			passes[c].add(time.Since(passStart))
		}
	})
	write, ctl := mergeAll(writes), mergeAll(ctls)
	res.setReads(mergeAll(reads), ctl, wall)
	res.setPasses(mergeAll(passes), ctl)
	res.set("write_p50_us", write.p50("us", 1))
	res.set("write_p99_us", write.tail(0.99, "us", 1))
	res.set("write_ops_per_s", metric{Value: float64(len(write.us)) / wall.Seconds(), Unit: "1/s", Samples: len(write.us)})
	rss, err := rssOf(sv.child)
	if err != nil {
		return nil, err
	}
	res.set("server_rss_mb", rss)

	// Crash and recover: every acknowledged write must be readable again
	// at its version. SIGKILL leaves the operating system's page cache
	// intact, so this is process-crash durability, not power loss.
	var acked uint64
	for _, w := range ws {
		acked = max(acked, w.acked)
	}
	sv.conn.close()
	sv.child.kill()
	stopped = true
	t0 := time.Now()
	ch, err := e.startServer(durableArgs(sv.dir)...)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	back := served{child: ch, conn: dial(ch.url, cfg.clients)}
	defer back.stop()
	err = issue(ctx, back.conn.Client, cl.ground(servingFamily, ws[0].lastKey, 0), acked)
	t.record(1, err)
	res.set("recovery_s", metric{Value: time.Since(t0).Seconds(), Unit: "s"})
	for _, w := range ws {
		if w.prev < 0 {
			continue
		}
		// Under Rep a live challenger is in some repair but not all; a
		// deleted one is in none.
		live := request{Kind: kindQuery, Family: "rep", Text: fmt.Sprintf("R(%d, %d)", w.lastKey, w.lastVal), Answer: "undetermined"}
		t.record(1, issue(ctx, back.conn.Client, live, acked))
		t.record(1, issue(ctx, back.conn.Client, cl.ground(servingFamily, w.lastKey, 0), acked))
		if w.goneKey >= 0 {
			gone := request{Kind: kindQuery, Family: "rep", Text: fmt.Sprintf("R(%d, %d)", w.goneKey, w.goneVal), Answer: "false"}
			t.record(1, issue(ctx, back.conn.Client, gone, acked))
		}
	}
	res.note("durability: SIGKILL, restart on the same directory, version %d and the last writes read back (process kill only: the OS page cache survived)", acked)
	res.finish(&t)
	return res, nil
}

// replicaClusters is the dataset size of replica_lag.
const replicaClusters = 20000

// followerBatch is how many follower reads client B issues between two
// looks at the clock.
const followerBatch = 50

// replicated is a durable primary with one follower.
type replicated struct {
	primary, follower served
}

func (r replicated) stop() {
	r.follower.stop()
	r.primary.stop()
}

func runReplicaLag(ctx context.Context, e *env, cfg config) (*result, error) {
	cl := newClusters(cfg.seed, replicaClusters)
	ds := cl.dataset()
	first := cl.ground(servingFamily, int(cl.keyOf[0]), 0)
	var bootstrap []float64
	pair, setup, err := setupMedian(cfg, func() (replicated, error) {
		var r replicated
		dirP, err := e.dataDir("primary")
		if err != nil {
			return r, err
		}
		dirF, err := e.dataDir("follower")
		if err != nil {
			return r, err
		}
		ch, err := e.startServer(durableArgs(dirP)...)
		if err != nil {
			return r, err
		}
		r.primary = served{child: ch, conn: dial(ch.url, cfg.clients), dir: dirP}
		var version uint64
		err = r.primary.conn.CreateDB(ctx, dbName)
		if err == nil {
			version, err = load(ctx, r.primary.conn.Client, ds)
		}
		if err == nil {
			err = issue(ctx, r.primary.conn.Client, first, 0)
		}
		if err != nil {
			r.primary.stop()
			return r, fmt.Errorf("primary: %w", err)
		}
		t0 := time.Now()
		fch, err := e.startServer(append(durableArgs(dirF), "-follow", ch.url)...)
		if err != nil {
			r.primary.stop()
			return r, err
		}
		r.follower = served{child: fch, conn: dial(fch.url, cfg.clients), dir: dirF}
		// Caught up: the follower answers correctly at the primary's
		// version.
		if err := awaitFollower(ctx, r.follower.conn.Client, first, version); err != nil {
			r.stop()
			return r, fmt.Errorf("follower bootstrap: %w", err)
		}
		bootstrap = append(bootstrap, time.Since(t0).Seconds())
		return r, nil
	}, replicated.stop)
	if err != nil {
		return nil, err
	}
	defer pair.stop()

	stream := cl.groundReads(cfg.seed*1000, streamLen, cl.m)
	res := newResult()
	res.set("setup_s", setup)
	res.note("follower bootstrap (start to caught up) median %.3f s of the set-up", median(bootstrap))
	var t tally
	var reads, ctl, writes, lags, passes latencies
	inserted, next := 0, 0
	// Client 0 writes on the primary and waits for the follower to show
	// the write; client 1 reads the follower in a closed loop.
	wall := window(ctx, 2, cfg.warmup, cfg.measure, &t, func(c int, measuring bool) {
		if c == 1 {
			for i := 0; i < followerBatch; i++ {
				if i%controlEvery == 0 {
					control(ctx, pair.follower.conn.Client, &t, measuring, &ctl)
				}
				req := cl.render(stream[next%streamLen])
				next++
				t0 := time.Now()
				err := issue(ctx, pair.follower.conn.Client, req, 0)
				if measuring {
					t.record(1, err)
					if err == nil {
						reads.add(time.Since(t0))
					}
				}
			}
			return
		}
		key := cl.m + inserted
		inserted++
		rctx, cancel := reqCtx(ctx)
		t0 := time.Now()
		_, version, err := pair.primary.conn.Insert(rctx, dbName, "R", tupleOf([2]int64{int64(key), 0}))
		cancel()
		acked := time.Now()
		if measuring {
			t.record(1, err)
		}
		if err != nil {
			return
		}
		fresh := request{Kind: kindQuery, Family: "global", Text: fmt.Sprintf("R(%d, 0)", key), Answer: "true"}
		err = issue(ctx, pair.follower.conn.Client, fresh, version)
		if measuring {
			t.record(1, err)
			if err == nil {
				writes.add(acked.Sub(t0))
				lags.add(time.Since(acked))
				passes.add(time.Since(t0))
			}
		}
	})
	res.setReads(&reads, &ctl, wall)
	res.setPasses(&passes, &ctl)
	res.set("write_p50_us", writes.p50("us", 1))
	res.set("write_ops_per_s", metric{Value: float64(len(writes.us)) / wall.Seconds(), Unit: "1/s", Samples: len(writes.us)})
	res.set("visible_lag_p50_ms", lags.p50("ms", 1e3))
	res.set("visible_lag_p90_ms", lags.tail(0.90, "ms", 1e3))
	rss, err := rssOf(pair.primary.child, pair.follower.child)
	if err != nil {
		return nil, err
	}
	res.set("server_rss_mb", rss)

	// The run ends with the follower fully caught up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		p, err := dbStats(ctx, pair.primary.conn)
		if err != nil {
			return nil, err
		}
		f, err := dbStats(ctx, pair.follower.conn)
		if err != nil {
			return nil, err
		}
		if f.Replication != nil && f.Replication.AppliedSeq == p.WriteVersion {
			t.record(1, nil)
			res.note("follower applied_seq %d equals the primary's write_version", p.WriteVersion)
			break
		}
		if time.Now().After(deadline) {
			t.record(1, fmt.Errorf("%w: follower stuck behind the primary's write_version %d", errWrong, p.WriteVersion))
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	res.finish(&t)
	return res, nil
}
