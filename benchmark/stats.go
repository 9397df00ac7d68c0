package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number. Samples and Percentile describe how a
// timing was taken (0 when they do not apply); the contract line keeps
// only value and unit.
type metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to be trusted.
const tailBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the usual median: the middle value, or the mean of the
// middle two.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile returns the highest quantile not above limit that still
// has tailBeyond samples beyond it, and the quantile it settled on. It
// never goes below the median: with too few samples the median is all
// the sample supports.
func tailQuantile(sorted []float64, limit float64) (value, q float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(limit*float64(n))) - 1
	if most := n - 1 - tailBeyond; i > most {
		i = most
	}
	if mid := int(math.Ceil(0.5*float64(n))) - 1; i < mid {
		i = mid
	}
	return sorted[i], float64(i+1) / float64(n)
}

// quartiles returns the first and third quartile of an ascending slice
// of at least two values, interpolated as Python's
// statistics.quantiles(values, n=4) does — the rule the repeatability
// criterion is stated in.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// latencies collects request timings of one operation kind in
// microseconds.
type latencies struct {
	us []float64
}

func (l *latencies) add(d time.Duration) { l.us = append(l.us, float64(d.Nanoseconds())/1e3) }

func (l *latencies) merge(o *latencies) { l.us = append(l.us, o.us...) }

// p50 and tail report in the unit given by div (1 for µs, 1e3 for ms).
func (l *latencies) p50(unit string, div float64) metric {
	return metric{Value: median(l.us) / div, Unit: unit, Samples: len(l.us), Percentile: 0.5}
}

// tail is the whole window's tail: the highest percentile up to limit
// that has tailBeyond samples beyond it (see tailQuantile). Every stall
// the window caught is in it, the server's own (a checkpoint, a
// collection, a slow group fsync) and the sandbox's alike; a tail too
// unsteady for its bound means the window holds too few samples.
func (l *latencies) tail(limit float64, unit string, div float64) metric {
	v, q := tailQuantile(sortedCopy(l.us), limit)
	return metric{Value: v / div, Unit: unit, Samples: len(l.us), Percentile: q}
}

// over reports the median of the timings as a multiple of the median
// control round trip taken in the same loop (see control in load.go):
// what the gate reads in place of the microseconds, because the sandbox
// moves both by the same factor.
func (l *latencies) over(ctl *latencies) metric {
	m := metric{Unit: "ratio", Samples: len(l.us), Percentile: 0.5}
	if c := median(ctl.us); c > 0 {
		m.Value = median(l.us) / c
	}
	return m
}

// span is one timed call of the traced run. Replays of one request at
// successive depths share Trace; Parent names the next-shallower
// replay, whose interval this one accounts for.
type span struct {
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start"` // ns since the traced run began
	End    int64  `json:"end"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e3 }

// selfTimes computes, per span name, the self time of every trace in
// µs: the span's duration minus its children's, clamped at 0. Replays
// are sequential, not nested, so the subtraction is by name within a
// trace. It also returns the share of (trace, name) pairs that clamped.
func selfTimes(spans []span) (self map[string][]float64, clampShare float64) {
	type key struct {
		trace int
		name  string
	}
	dur := make(map[key]float64)
	children := make(map[key]float64)
	var order []key
	for _, s := range spans {
		k := key{s.Trace, s.Name}
		if _, seen := dur[k]; !seen {
			order = append(order, k)
		}
		dur[k] += s.dur()
		if s.Parent != "" {
			children[key{s.Trace, s.Parent}] += s.dur()
		}
	}
	self = make(map[string][]float64)
	clamped := 0
	for _, k := range order {
		v := dur[k] - children[k]
		if v < 0 {
			v = 0
			clamped++
		}
		self[k.name] = append(self[k.name], v)
	}
	if len(order) > 0 {
		clampShare = float64(clamped) / float64(len(order))
	}
	return self, clampShare
}
