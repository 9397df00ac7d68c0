package cqa

import (
	"sync/atomic"

	"prefcqa/internal/query"
)

// EvalStats is an optional, concurrency-safe counter block the facade
// attaches to its inputs (Input.Stats): it records which open-query
// path answered each FreeAnswers call, which vectorized executor ran
// the candidate spine and which verification path answered each closed
// evaluation, and how often a QueryCache answered a query text, so the
// serving layer can expose the planner's choices (/v1/stats) without
// tracing individual queries. A nil *EvalStats disables collection
// everywhere.
type EvalStats struct {
	openDirect   atomic.Int64
	openFallback atomic.Int64
	spineWcoj    atomic.Int64
	spineYan     atomic.Int64
	spineGreedy  atomic.Int64
	closedPruned atomic.Int64
	closedFull   atomic.Int64
	closedBound  atomic.Int64
	queryHits    atomic.Int64
	queryMisses  atomic.Int64
}

// EvalStatsSnapshot is a point-in-time copy of the counters.
type EvalStatsSnapshot struct {
	// OpenDirect / OpenFallback count FreeAnswers calls answered by
	// direct spine enumeration vs active-domain substitution.
	OpenDirect   int64
	OpenFallback int64
	// Spine executor choices observed by direct open enumerations.
	SpineWcoj       int64
	SpineYannakakis int64
	SpineGreedy     int64
	// ClosedPruned / ClosedFull count closed-query evaluations (both
	// direct Evaluate calls and per-candidate open-query verifies) whose
	// walk was pruned to the components the query's support touches vs
	// run over the preferred repairs of the whole database because the
	// support analysis declined.
	ClosedPruned int64
	ClosedFull   int64
	// ClosedBounded counts the ClosedPruned evaluations decided on the
	// union or the intersection of the preferred repairs, without a walk.
	ClosedBounded int64
	// QueryCacheHits / QueryCacheMisses count query texts a QueryCache
	// answered with a kept analysis vs parsed, validated and analysed.
	QueryCacheHits   int64
	QueryCacheMisses int64
}

// Snapshot copies the counters; safe on a nil receiver (all zero).
func (s *EvalStats) Snapshot() EvalStatsSnapshot {
	if s == nil {
		return EvalStatsSnapshot{}
	}
	return EvalStatsSnapshot{
		OpenDirect:       s.openDirect.Load(),
		OpenFallback:     s.openFallback.Load(),
		SpineWcoj:        s.spineWcoj.Load(),
		SpineYannakakis:  s.spineYan.Load(),
		SpineGreedy:      s.spineGreedy.Load(),
		ClosedPruned:     s.closedPruned.Load(),
		ClosedFull:       s.closedFull.Load(),
		ClosedBounded:    s.closedBound.Load(),
		QueryCacheHits:   s.queryHits.Load(),
		QueryCacheMisses: s.queryMisses.Load(),
	}
}

// noteClosed records one closed-query evaluation: pruned says whether
// its walk was pruned to a support (vs run over the whole database).
func (s *EvalStats) noteClosed(pruned bool) {
	if s == nil {
		return
	}
	if pruned {
		s.closedPruned.Add(1)
	} else {
		s.closedFull.Add(1)
	}
}

// noteBounded records a pruned closed evaluation decided on a bound.
func (s *EvalStats) noteBounded() {
	if s != nil {
		s.closedBound.Add(1)
	}
}

// noteQueryCache records one QueryCache lookup.
func (s *EvalStats) noteQueryCache(hit bool) {
	if s == nil {
		return
	}
	if hit {
		s.queryHits.Add(1)
	} else {
		s.queryMisses.Add(1)
	}
}

// noteOpen records one FreeAnswers call: direct says which path
// answered it, executor (meaningful only when direct) is the
// vectorized executor that ran the spine.
func (s *EvalStats) noteOpen(executor string, direct bool) {
	if s == nil {
		return
	}
	if !direct {
		s.openFallback.Add(1)
		return
	}
	s.openDirect.Add(1)
	switch executor {
	case query.ExecWCOJ:
		s.spineWcoj.Add(1)
	case query.ExecYannakakis:
		s.spineYan.Add(1)
	case query.ExecGreedyVec:
		s.spineGreedy.Add(1)
	}
}
