package core

import (
	"context"
	"sync"
	"sync/atomic"

	"prefcqa/internal/priority"
	"prefcqa/internal/repair"
)

// This file is the engine's side of the delta-maintenance model: the
// signature-keyed memo (engine.go) already survives mutations — an
// untouched component hashes to the same (signature, orientation) key
// after any number of instance mutations, so its cached choice sets
// are reused without any invalidation protocol. What a mutating
// workload still pays per Count is re-deriving every component's
// signature, O(n) over the instance. CountCache removes that: counts
// are keyed by (era, component ID, family), both issued by the
// conflict graph's delta machinery as immutable value identities — a
// mutation retires the IDs of the components it touches, so cached
// entries are invalidated by construction, never by bookkeeping, and
// entries for old IDs keep serving snapshot readers of old versions.

// countKey identifies one component's choice-set count: the graph
// base generation, the component's immutable ID, and the family.
type countKey struct {
	era  uint64
	comp int32
	f    Family
}

// countCacheMax bounds the cache; when full it is cleared rather than
// evicted — the cache is an optimization, never load-bearing.
const countCacheMax = 1 << 19

// CountCache memoizes per-component preferred-repair counts across
// graph versions. It is safe for concurrent use and shared between a
// live DB and all of its snapshots: entries can never go stale
// because a (era, component ID) pair is never reused for different
// content.
//
// On top of the per-component entries the cache keeps, per family, the
// finished total of the graph version counted last (see countTotal):
// repeated counts of an unchanged version — the common case between
// two mutations — are one pointer comparison, not a scan.
type CountCache struct {
	mu     sync.RWMutex
	m      map[countKey]int64
	totals [NumFamilies]atomic.Pointer[countTotal]
}

// countTotal is a finished count (the product, or repair.ErrOverflow)
// of the graph version whose component listing is (era, ids). A
// listing is memoized per graph version and (era, component ID) pairs
// are never reused for different content, so the identity of the ids
// slice identifies the counted content as exactly as the per-component
// keys do; holding ids keeps that identity from being reused.
type countTotal struct {
	era uint64
	ids []int32
	n   int64
	err error
}

// total returns the kept total of the listing, if it is the one
// counted last.
func (c *CountCache) total(f Family, era uint64, ids []int32) (*countTotal, bool) {
	if int(f) >= NumFamilies {
		return nil, false
	}
	t := c.totals[f].Load()
	if t == nil || t.era != era || len(t.ids) != len(ids) || (len(ids) > 0 && &t.ids[0] != &ids[0]) {
		return nil, false
	}
	return t, true
}

// keepTotal records a finished count (ctx errors are not counts) and
// returns it.
func (c *CountCache) keepTotal(f Family, era uint64, ids []int32, n int64, err error) (int64, error) {
	if int(f) < NumFamilies && (err == nil || err == repair.ErrOverflow) {
		c.totals[f].Store(&countTotal{era: era, ids: ids, n: n, err: err})
	}
	return n, err
}

// NewCountCache returns an empty count cache.
func NewCountCache() *CountCache {
	return &CountCache{m: make(map[countKey]int64)}
}

// CountCached returns |X-Rep| like Count, but reuses per-component
// counts cached under the graph's (era, component ID) identities:
// after a point mutation only the components the mutation dirtied
// (whose IDs are fresh) are re-evaluated, so a Count in a mutation
// workload costs O(#components) lookups plus O(touched) evaluation
// instead of O(instance) signature hashing — once per graph version:
// the finished total is kept, and further counts of that version
// return it. The lookups run under the cache's read lock, so
// concurrent counts of one relation do not serialize; the misses (the
// dirtied components) are evaluated outside any lock and stored under
// one exclusive acquisition.
//
// Counts of every family are non-negative and multiplication is
// commutative, so folding the cache misses in after the hits cannot
// change the result, the zero short-circuit, or the overflow verdict.
func (e *Engine) CountCached(f Family, p *priority.Priority, cc *CountCache) (int64, error) {
	return e.CountCachedCtx(context.Background(), f, p, cc)
}

// CountCachedCtx is CountCached with cancellation, checked once per
// chunk of cache-missed components: once ctx is cancelled ctx.Err() is
// returned and nothing is cached.
func (e *Engine) CountCachedCtx(ctx context.Context, f Family, p *priority.Priority, cc *CountCache) (int64, error) {
	if cc == nil {
		return e.CountCtx(ctx, f, p)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	g := p.Graph()
	comps, ids := g.ComponentsWithIDs()
	key := countKey{era: g.Era(), f: f}
	if t, ok := cc.total(f, key.era, ids); ok {
		return t.n, t.err
	}
	total := int64(1)
	var err error
	var missIdx []int
	cc.mu.RLock()
	for i := range comps {
		key.comp = ids[i]
		c, ok := cc.m[key]
		if !ok {
			missIdx = append(missIdx, i)
			continue
		}
		if total, err = mulCount(total, c); err != nil || total == 0 {
			break
		}
	}
	cc.mu.RUnlock()
	if err != nil || total == 0 || len(missIdx) == 0 {
		return cc.keepTotal(f, key.era, ids, total, err)
	}
	// Evaluate the dirtied components on the engine's worker pool —
	// a cold cache (first count, post-compaction, WithMemo(false)
	// rebuild baselines) keeps the same parallelism Count has.
	missComps := make([][]int, len(missIdx))
	for k, i := range missIdx {
		missComps[k] = comps[i]
	}
	local, err := e.localChoicesOf(ctx, f, p, missComps)
	if err != nil {
		return 0, err
	}
	cc.mu.Lock()
	if len(cc.m)+len(local) > countCacheMax {
		cc.m = make(map[countKey]int64)
	}
	for k, i := range missIdx {
		key.comp = ids[i]
		cc.m[key] = int64(len(local[k]))
	}
	cc.mu.Unlock()
	total, err = mulCounts(total, local)
	return cc.keepTotal(f, key.era, ids, total, err)
}
