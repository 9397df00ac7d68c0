package core

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"prefcqa/internal/bitset"
	"prefcqa/internal/priority"
	"prefcqa/internal/repair"
)

// Engine evaluates preferred-repair families over the connected
// components of the conflict graph with a configurable worker pool
// and an optional memoization cache.
//
// Every family decomposes componentwise (see ChoicesForComponent): a
// preferred repair is one choice per component, and the per-component
// choice sets — the expensive part of enumeration, counting and CQA —
// are independent units of work. The engine offers them at the two
// granularities its consumers have:
//
//   - ChoicesForCtx resolves the few components a request touches,
//     inline on the calling goroutine, and returns them in
//     component-local form (Choices) to be applied sparsely;
//   - Resolve, Count and Enumerate need every component: the
//     components are cut into chunks, the chunks are sharded over the
//     worker pool, and the consumer starts once all are done. Resolve
//     folds the result into a Resolved — a base set holding every
//     single-choice component plus the list of multi-choice ones —
//     which callers that own an immutable database version keep with
//     that version, so the work is done once per version.
//
// With memoization enabled, choice sets are cached keyed by
// (family, component signature, priority orientation): structurally
// identical components — ubiquitous in practice (key-violation
// clusters, singleton components, repeated queries against the same
// instance) — are computed once and shared, which is a large win even
// on a single CPU.
//
// All configurations produce bit-for-bit identical results to the
// sequential reference path (Sequential), in identical order. An
// Engine is safe for concurrent use.
type Engine struct {
	workers int   // <= 0: use GOMAXPROCS
	memo    *memo // nil: memoization disabled
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithWorkers sets the number of component workers. n <= 0 selects
// runtime.GOMAXPROCS(0); n == 1 evaluates components inline on the
// calling goroutine.
func WithWorkers(n int) EngineOption {
	return func(e *Engine) { e.workers = n }
}

// WithMemo enables or disables the per-component choice-set cache.
func WithMemo(on bool) EngineOption {
	return func(e *Engine) {
		if on {
			e.memo = newMemo()
		} else {
			e.memo = nil
		}
	}
}

// NewEngine returns an engine with the given options. The default is
// a GOMAXPROCS-sized worker pool with memoization enabled.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{workers: 0, memo: newMemo()}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// sequential is the shared reference engine behind the package-level
// functions: one worker, no cache.
var sequential = &Engine{workers: 1}

// Sequential returns the reference engine: single-threaded, no
// memoization. Every other configuration must produce identical
// results; the property tests assert this.
func Sequential() *Engine { return sequential }

// CacheStats returns the cumulative cache hit and miss counts (both
// zero when memoization is disabled).
func (e *Engine) CacheStats() (hits, misses int64) {
	if e.memo == nil {
		return 0, 0
	}
	return e.memo.hits.Load(), e.memo.misses.Load()
}

// ChoicesForCtx computes the choice sets of the given components only
// — the building block of the CQA component pruning, which restricts
// evaluation to the components a query touches. The result is in
// component-local form, one Choices per component in the given order.
// Once ctx is cancelled no further chunk of components is evaluated
// and ctx.Err() is returned.
func (e *Engine) ChoicesForCtx(ctx context.Context, f Family, p *priority.Priority, comps [][]int) ([]Choices, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	local, err := e.localChoicesOf(ctx, f, p, comps)
	if err != nil {
		return nil, err
	}
	out := make([]Choices, len(comps))
	for i, l := range local {
		out[i] = Choices{Comp: comps[i], Local: l}
	}
	return out, nil
}

// Enumerate yields every preferred repair of the family, identical in
// content and order to the sequential path. The yielded set is reused
// between calls; clone it to retain. Returns repair.ErrStopped if the
// callback stopped early.
func (e *Engine) Enumerate(f Family, p *priority.Priority, yield func(*bitset.Set) bool) error {
	return e.EnumerateCtx(context.Background(), f, p, yield)
}

// EnumerateCtx is Enumerate with cancellation: ctx is checked once per
// chunk of components while they are resolved and once per repair
// before it is yielded, and ctx.Err() is returned (distinguishable
// from repair.ErrStopped, which still reports an early-stopping
// yield). A single component's choice-set computation is not
// interruptible. Callers that enumerate one priority repeatedly
// should keep the Resolved and call its Enumerate.
func (e *Engine) EnumerateCtx(ctx context.Context, f Family, p *priority.Priority, yield func(*bitset.Set) bool) error {
	res, err := e.Resolve(ctx, f, p)
	if err != nil {
		return err
	}
	return res.Enumerate(ctx, yield)
}

// All materializes every preferred repair of the family, in the same
// order as the sequential path.
func (e *Engine) All(f Family, p *priority.Priority) []*bitset.Set {
	var out []*bitset.Set
	e.Enumerate(f, p, func(s *bitset.Set) bool { //nolint:errcheck // yield never stops
		out = append(out, s.Clone())
		return true
	})
	return out
}

// CountCtx is Count with cancellation, checked once per chunk of
// components.
func (e *Engine) CountCtx(ctx context.Context, f Family, p *priority.Priority) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	local, err := e.localChoicesOf(ctx, f, p, p.Graph().Components())
	if err != nil {
		return 0, err
	}
	return mulCounts(1, local)
}

// mulCount folds one component's count into a running product:
// repair.ErrOverflow beyond int64, and a zero stays zero.
func mulCount(total, c int64) (int64, error) {
	if c == 0 {
		return 0, nil
	}
	if total > math.MaxInt64/c {
		return 0, repair.ErrOverflow
	}
	return total * c, nil
}

// mulCounts folds the number of choices of every listed component
// into total.
func mulCounts(total int64, local [][]*bitset.Set) (int64, error) {
	var err error
	for _, l := range local {
		if total, err = mulCount(total, int64(len(l))); err != nil || total == 0 {
			break
		}
	}
	return total, err
}

// componentLocalChoices computes (or recalls) the choice sets of one
// component, in component-local index space — exactly the
// representation the memo cache stores, so a hit is returned as-is
// and a miss computes locally and caches. Nothing ever translates the
// result to global tuple IDs: consumers pair it with the component's
// member list (Choices) and apply it sparsely. Callers must treat the
// result as immutable — it may be shared with the cache and other
// components.
func (e *Engine) componentLocalChoices(f Family, p *priority.Priority, comp []int) []*bitset.Set {
	if len(comp) == 0 {
		return []*bitset.Set{bitset.New(0)}
	}
	if e.memo == nil {
		return localChoices(f, p, comp)
	}
	key := componentKey(f, p, comp)
	if cached, ok := e.memo.get(key); ok {
		return cached
	}
	local := localChoices(f, p, comp)
	e.memo.put(key, local)
	return local
}

// componentKey builds the cache key of a component: the family, the
// canonical structure signature (conflict.ComponentSignature), and —
// for the priority-sensitive families — the orientation of each
// induced edge in the signature's edge order. Two components with
// equal keys have isomorphic induced subgraphs and priorities under
// the order-preserving renumbering, so their choice sets correspond
// elementwise and in order.
func componentKey(f Family, p *priority.Priority, comp []int) string {
	g := p.Graph()
	var b strings.Builder
	b.WriteByte(byte('0' + int(f)))
	b.WriteByte('|')
	b.WriteString(g.ComponentSignature(comp))
	if f == Rep {
		return b.String() // repairs ignore the priority
	}
	b.WriteByte('|')
	for i, v := range comp {
		for _, u32 := range g.Neighbors(v) {
			u := int(u32)
			j := sort.SearchInts(comp, u)
			if j < len(comp) && comp[j] == u && j > i {
				switch {
				case p.Dominates(v, u):
					b.WriteByte('>')
				case p.Dominates(u, v):
					b.WriteByte('<')
				default:
					b.WriteByte('.')
				}
			}
		}
	}
	return b.String()
}

// memoMaxEntries bounds the cache; beyond it new entries are dropped
// (the cache is an optimization, never load-bearing).
const memoMaxEntries = 1 << 16

// memo is the concurrency-safe (family, component signature) →
// choice-set cache. Values are stored in local index space so hits
// are shared between structurally identical components of any
// instance.
type memo struct {
	mu     sync.RWMutex
	m      map[string][]*bitset.Set
	hits   atomic.Int64
	misses atomic.Int64
}

func newMemo() *memo {
	return &memo{m: make(map[string][]*bitset.Set)}
}

func (c *memo) get(key string) ([]*bitset.Set, bool) {
	c.mu.RLock()
	v, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

func (c *memo) put(key string, v []*bitset.Set) {
	c.mu.Lock()
	if len(c.m) < memoMaxEntries {
		c.m[key] = v
	}
	c.mu.Unlock()
}
