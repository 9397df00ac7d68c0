package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"prefcqa/internal/bitset"
	"prefcqa/internal/priority"
)

// This file is the engine's only concurrency: a chunked parallel-for
// over a list of components. Consumers receive the finished list —
// there is no hand-off of single components between goroutines,
// because every consumer of more than a handful of components (a
// resolve, a count) needs all of them before it can produce anything.

// effectiveWorkers resolves the configured worker count against the
// machine and the number of work items.
func (e *Engine) effectiveWorkers(items int) int {
	w := e.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

const (
	// inlineComps is the handful of components evaluated on the calling
	// goroutine whatever the pool size: the components a point read or
	// a ground query touches cost less than starting a worker.
	inlineComps = 4
	// maxChunk bounds the components a worker takes at a time, and so
	// the components evaluated between two cancellation checks.
	maxChunk = 256
)

// localChoicesOf computes the choice sets of the given components in
// component-local form (see componentLocalChoices), in order. A
// handful of components, or a one-worker engine, runs inline; anything
// larger is cut into chunks that the workers claim from a shared
// counter — few components (which may each be expensive) go one per
// chunk, many go maxChunk at a time. ctx is checked once per chunk:
// after cancellation no new chunk is started, chunks in flight run to
// completion, and ctx.Err() is returned.
func (e *Engine) localChoicesOf(ctx context.Context, f Family, p *priority.Priority, comps [][]int) ([][]*bitset.Set, error) {
	n := len(comps)
	out := make([][]*bitset.Set, n)
	workers := 1
	if n > inlineComps {
		workers = e.effectiveWorkers(n)
	}
	chunk := min(max(n/(4*workers), 1), maxChunk)
	run := func(lo int) {
		for i := lo; i < min(lo+chunk, n); i++ {
			out[i] = e.componentLocalChoices(f, p, comps[i])
		}
	}
	if workers == 1 {
		for lo := 0; lo < n; lo += chunk {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			run(lo)
		}
		return out, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := (int(next.Add(1)) - 1) * chunk
				if lo >= n || ctx.Err() != nil {
					return
				}
				run(lo)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
