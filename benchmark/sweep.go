package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"prefcqa/client"
)

// The open-loop sweep is not gated. On the two-core reference box the
// pacer's own wake-up lateness (about 0.5ms) exceeds the service time
// (about 0.15ms), and three identical 4000/s probes gave p99 = 4, 7
// and 130ms; the closed-loop windows are what BENCHMARK.json bounds.
// The sweep exists to show where latency leaves the floor as offered
// load rises, and it reports how late its own generator ran so a
// reader can tell the two apart.

const (
	sweepRung    = 3 * time.Second
	sweepWorkers = 32 // connections available to the arrival process
	sweepLimitMS = 5.0
)

var sweepRates = map[string][]float64{
	"point_read": {1000, 2000, 4000, 6000, 8000, 10000},
	"write_mix":  {100, 200, 400, 800, 1200},
}

// rung is one offered rate of the ladder. Latency runs from the moment
// a request was due, not from when it was sent, so a stall is charged
// to every request it delayed.
type rung struct {
	OfferedPerS     float64 `json:"offered_per_s"`
	Due             int     `json:"due"`
	Completed       int     `json:"completed"`
	P50US           float64 `json:"p50_us"`
	P99US           float64 `json:"p99_us"`
	SchedLateP99US  float64 `json:"sched_late_p99_us"`
	MaxBacklog      int     `json:"max_backlog"`
	ShedShare       float64 `json:"shed_503_share"`
	TimeoutShare    float64 `json:"timeout_504_share"`
	OtherFailShare  float64 `json:"other_fail_share"`
	MeetsLimit      bool    `json:"meets_limit"`
	AchievedPerS    float64 `json:"achieved_per_s"`
	DrainAfterEndMS float64 `json:"drain_after_end_ms"`
}

// job is one arrival: its index in the rung and when it was due.
type job struct {
	i   int
	due time.Time
}

// ladder offers op at each rate for sweepRung and measures every
// arrival from its due time.
func ladder(ctx context.Context, rates []float64, op func(ctx context.Context, i int) error) []rung {
	var rungs []rung
	base := 0
	for _, rate := range rates {
		n := int(rate * sweepRung.Seconds())
		queue := make(chan job, n) // holds a whole rung: the pacer never waits on the workers
		var mu sync.Mutex
		var lat, late latencies
		var shed, timeouts, other int
		var wg sync.WaitGroup
		for w := 0; w < sweepWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range queue {
					sent := time.Now()
					err := op(ctx, base+j.i)
					done := time.Now()
					mu.Lock()
					late.add(sent.Sub(j.due))
					var ae *client.APIError
					switch {
					case err == nil:
						lat.add(done.Sub(j.due))
					case errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable:
						shed++
					case errors.As(err, &ae) && ae.Status == http.StatusGatewayTimeout:
						timeouts++
					default:
						other++
					}
					mu.Unlock()
				}
			}()
		}
		start := time.Now()
		backlog := 0
		for i := 0; i < n && ctx.Err() == nil; i++ {
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			queue <- job{i: i, due: due}
			backlog = max(backlog, len(queue))
		}
		close(queue)
		end := time.Now()
		wg.Wait()
		s := sortedCopy(lat.us)
		p99, _ := tailQuantile(s, 0.99)
		lateP99, _ := tailQuantile(sortedCopy(late.us), 0.99)
		r := rung{
			OfferedPerS: rate, Due: n, Completed: len(s),
			P50US: median(s), P99US: p99, SchedLateP99US: lateP99, MaxBacklog: backlog,
			ShedShare: float64(shed) / float64(n), TimeoutShare: float64(timeouts) / float64(n), OtherFailShare: float64(other) / float64(n),
			AchievedPerS:    float64(len(s)) / time.Since(start).Seconds(),
			DrainAfterEndMS: float64(time.Since(end).Nanoseconds()) / 1e6,
		}
		r.MeetsLimit = len(s) == n && p99 <= sweepLimitMS*1e3
		rungs = append(rungs, r)
		fmt.Printf("offered %7.0f/s  p50 %9.1f us  p99 %10.1f us  sched_late_p99 %9.1f us  backlog %5d  503 %.3f  504 %.3f  meets %v\n",
			rate, r.P50US, r.P99US, r.SchedLateP99US, r.MaxBacklog, r.ShedShare, r.TimeoutShare, r.MeetsLimit)
		base += n
	}
	return rungs
}

// sweepFile is where a sweep is written, in the repository root: its
// own file, never a results file.
const sweepFile = "sweep.json"

// runSweep sets the workload's server up once and climbs its ladder.
func runSweep(ctx context.Context, e *env, name string, cfg config) (int, error) {
	rates, ok := sweepRates[name]
	if !ok {
		return 2, fmt.Errorf("-sweep supports point_read and write_mix, not %s", name)
	}
	cfg.setups, cfg.clients = 1, sweepWorkers
	cl := newClusters(cfg.seed, servingClusters)
	sv, _, err := serve(ctx, e, cfg, name == "write_mix", cl.dataset(), []request{cl.ground(servingFamily, int(cl.keyOf[0]), 0)})
	if err != nil {
		return 1, err
	}
	defer sv.stop()

	var op func(ctx context.Context, i int) error
	if name == "point_read" {
		stream := cl.pointReads(cfg.seed*1000, streamLen, cl.m)
		op = func(ctx context.Context, i int) error {
			return issue(ctx, sv.conn.Client, cl.render(stream[i%streamLen]), 0)
		}
	} else {
		var keys []int
		for rank := int(float64(cl.m) * (1 - writeShare)); rank < cl.m; rank++ {
			if k := int(cl.keyOf[rank]); !cl.undet[k] {
				keys = append(keys, k)
			}
		}
		// One arrival is one self-contained update: insert a challenger,
		// prefer the anchor, read the anchor back at the acknowledged
		// version, delete the challenger.
		op = func(ctx context.Context, i int) error {
			k, val := keys[i%len(keys)], 2+i/len(keys)
			rctx, cancel := reqCtx(ctx)
			defer cancel()
			ids, _, err := sv.conn.Insert(rctx, dbName, "R", tupleOf([2]int64{int64(k), int64(val)}))
			if err != nil {
				return err
			}
			version, err := sv.conn.Prefer(rctx, dbName, "R", [2]int{anchorID(k), ids[0]})
			if err != nil {
				return err
			}
			if err := issue(ctx, sv.conn.Client, cl.ground(servingFamily, k, 0), version); err != nil {
				return err
			}
			_, _, err = sv.conn.Delete(rctx, dbName, "R", ids[0])
			return err
		}
	}
	rungs := ladder(ctx, rates, op)
	highest := 0.0
	for _, r := range rungs {
		if !r.MeetsLimit {
			break
		}
		highest = r.OfferedPerS
	}
	fmt.Printf("highest offered rate with p99 <= %.0f ms and nothing lost: %.0f/s\n", sweepLimitMS, highest)
	blob, err := json.MarshalIndent(struct {
		Fingerprint map[string]string `json:"fingerprint"`
		Workload    string            `json:"workload"`
		LimitMS     float64           `json:"p99_limit_ms"`
		Highest     float64           `json:"highest_rate_meeting_limit_per_s"`
		Rungs       []rung            `json:"rungs"`
	}{fingerprint(e.root, cfg), name, sweepLimitMS, highest, rungs}, "", "  ")
	if err != nil {
		return 1, err
	}
	return 0, os.WriteFile(filepath.Join(e.root, sweepFile), append(blob, '\n'), 0o644)
}
