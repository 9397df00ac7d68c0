package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"prefcqa"
	"prefcqa/client"
)

// dbName is the one database every workload uses.
const dbName = "bench"

// loadBatch is how many rows or preference pairs one bulk-load request
// carries.
const loadBatch = 10000

func tupleOf(row [2]int64) prefcqa.Tuple {
	return prefcqa.Tuple{prefcqa.Int(row[0]), prefcqa.Int(row[1])}
}

// load bulk-loads a generated dataset into the (existing, empty)
// database through the wire protocol, returning the last acknowledged
// write-version.
func load(ctx context.Context, c *client.Client, ds dataset) (uint64, error) {
	var version uint64
	for _, rel := range ds.Rels {
		if _, err := c.CreateRelation(ctx, dbName, rel.Name, client.IntAttr(rel.Attrs[0]), client.IntAttr(rel.Attrs[1])); err != nil {
			return 0, err
		}
		if rel.FD != "" {
			if _, err := c.AddFD(ctx, dbName, rel.Name, rel.FD); err != nil {
				return 0, err
			}
		}
		for lo := 0; lo < len(rel.Rows); lo += loadBatch {
			hi := min(lo+loadBatch, len(rel.Rows))
			rows := make([]prefcqa.Tuple, hi-lo)
			for i := range rows {
				rows[i] = tupleOf(rel.Rows[lo+i])
			}
			ids, v, err := c.Insert(ctx, dbName, rel.Name, rows...)
			if err != nil {
				return 0, err
			}
			if len(ids) != len(rows) || ids[0] != lo || ids[len(ids)-1] != hi-1 {
				return 0, fmt.Errorf("load %s: rows %d..%d got ids %d..%d", rel.Name, lo, hi-1, ids[0], ids[len(ids)-1])
			}
			version = v
		}
		for lo := 0; lo < len(rel.Prefs); lo += loadBatch {
			hi := min(lo+loadBatch, len(rel.Prefs))
			v, err := c.Prefer(ctx, dbName, rel.Name, rel.Prefs[lo:hi]...)
			if err != nil {
				return 0, err
			}
			version = v
		}
	}
	return version, nil
}

// errWrong marks a reply that arrived but disagrees with the oracle.
var errWrong = errors.New("wrong answer")

func renderBindings(bs []map[string]string) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		parts := make([]string, 0, len(b))
		for name, v := range b {
			parts = append(parts, name+"="+v)
		}
		sort.Strings(parts)
		out[i] = strings.Join(parts, ",")
	}
	sort.Strings(out)
	return out
}

// issue sends one generated read and checks the reply against its
// expectation. minVersion > 0 demands read-your-writes.
func issue(ctx context.Context, c *client.Client, req request, minVersion uint64) error {
	ctx, cancel := reqCtx(ctx)
	defer cancel()
	opts := []client.ReadOption{client.Timeout(requestTimeout)}
	if minVersion > 0 {
		opts = append(opts, client.MinVersion(minVersion))
	}
	fam, err := prefcqa.ParseFamily(req.Family)
	if err != nil {
		return err
	}
	switch req.Kind {
	case kindQuery:
		ans, err := c.Query(ctx, dbName, fam, req.Text, opts...)
		if err != nil {
			return err
		}
		if ans.String() != req.Answer {
			return fmt.Errorf("%w: %s [%s] = %s, want %s", errWrong, req.Text, req.Family, ans, req.Answer)
		}
	case kindOpen:
		bs, err := c.QueryOpen(ctx, dbName, fam, req.Text, opts...)
		if err != nil {
			return err
		}
		if got := renderBindings(bs); !slices.Equal(got, req.Bindings) {
			return fmt.Errorf("%w: %s [%s] = %v, want %v", errWrong, req.Text, req.Family, got, req.Bindings)
		}
	case kindCount:
		n, err := c.CountRepairs(ctx, dbName, fam, req.Text, opts...)
		if err != nil {
			return err
		}
		if n != req.Count {
			return fmt.Errorf("%w: count %s [%s] = %d, want %d", errWrong, req.Text, req.Family, n, req.Count)
		}
	}
	return nil
}

// control times one bare round trip: GET /healthz on the server the
// timed requests go to, on the same keep-alive connections, from the
// goroutine that issues them. It crosses the same sockets, the same
// net/http on both sides and the same wake-ups of the two processes, and
// runs none of the repository's serving or engine code. The sandbox's
// neighbours move it and the timed requests by the same factor (README,
// "Pilot"), so the gate reads each timing as a multiple of the controls
// taken in the same loop. It returns the time it took, which callers
// leave out of a pass.
func control(ctx context.Context, c *client.Client, t *tally, measuring bool, into *latencies) time.Duration {
	rctx, cancel := reqCtx(ctx)
	t0 := time.Now()
	err := c.Health(rctx)
	cancel()
	d := time.Since(t0)
	if measuring {
		t.record(1, err)
		if err == nil {
			into.add(d)
		}
	}
	return d
}

// awaitFollower is the end of a follower's set-up: it issues req at
// minVersion until the follower answers it correctly. The read parks on
// the follower while it bootstraps; but between a follower registering a
// database and attaching its replication stream the server answers 412
// (or 404 before discovery) instead of parking, so those are retried.
func awaitFollower(ctx context.Context, c *client.Client, req request, minVersion uint64) error {
	deadline := time.Now().Add(2 * requestTimeout)
	for {
		err := issue(ctx, c, req, minVersion)
		var ae *client.APIError
		attaching := errors.As(err, &ae) && (ae.Status == http.StatusPreconditionFailed || ae.Status == http.StatusNotFound)
		if !attaching || time.Now().After(deadline) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// tally counts what a run attempted and what failed. A failure is an
// error, a shed or timed-out request (503/504), or a wrong answer; the
// first few are kept verbatim for the report.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	shed      int64 // 503 + 504 among the failures
	samples   []string
}

func (t *tally) record(n int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += n
	if err == nil {
		return
	}
	t.failed++
	var ae *client.APIError
	if errors.As(err, &ae) && (ae.Status == http.StatusServiceUnavailable || ae.Status == http.StatusGatewayTimeout) {
		t.shed++
	}
	if len(t.samples) < 5 {
		t.samples = append(t.samples, err.Error())
	}
}

func (t *tally) failRatio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// maxFailures ends a run early: a broken server should fail the run in
// seconds, not fill the window with errors.
const maxFailures = 100

func (t *tally) broken() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed >= maxFailures
}

// window runs fn on `clients` goroutines for the warm-up and then the
// measured duration. fn receives the client index and a measuring
// flag that flips to true when the warm-up ends; it is called in a
// closed loop (the next call starts when the previous returned) until
// the window closes. It returns the measured wall time.
func window(ctx context.Context, clients int, warmup, measure time.Duration, t *tally, fn func(client int, measuring bool)) time.Duration {
	start := time.Now()
	measureFrom := start.Add(warmup)
	end := measureFrom.Add(measure)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for ctx.Err() == nil && !t.broken() {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				fn(cl, !now.Before(measureFrom))
			}
		}(cl)
	}
	wg.Wait()
	return time.Since(measureFrom)
}
