package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
)

// Every input the server ever sees comes from this file, derived from
// the run's seed, together with the answer the paper's semantics give
// for it — the oracle every reply is checked against.

// relSpec is one generated relation: binary, integer-typed, at most
// one functional dependency. Tuple IDs are row indexes: the loaders
// insert Rows in order into an empty relation, and check that the
// server agrees.
type relSpec struct {
	Name  string
	Attrs [2]string
	FD    string     // "" for none
	Rows  [][2]int64 // tuple id == index
	Prefs [][2]int   // winner id, loser id
}

type dataset struct {
	Rels []relSpec
}

// reqKind selects the endpoint a request goes to.
type reqKind uint8

const (
	kindQuery reqKind = iota // closed query, three-valued answer
	kindOpen                 // open query, certain bindings
	kindCount                // repair count
)

// request is one generated read with its expected reply.
type request struct {
	Kind   reqKind
	Class  string // workload-specific label (analytic class, point shape)
	Family string
	Text   string // query text, or the relation name for kindCount
	// Expected reply: Answer for kindQuery, Bindings (each a rendered
	// "var=value,..." string, sorted) for kindOpen, Count for kindCount.
	Answer   string
	Bindings []string
	Count    int64
}

// undeterminedEvery makes every tenth Zipf rank an undetermined
// cluster: exactly 10% of the clusters, and — because the stride is
// laid along the popularity order — the same share of the requests
// whatever the seed, so a run's cost does not depend on whether the
// seed happened to make the hottest key undetermined.
const undeterminedEvery = 10

// clusters is the R(K,V) dataset of the serving workloads: m keys,
// each with the two tuples (k,0) [id 2k] and (k,1) [id 2k+1] that
// conflict under K -> V. Oriented clusters prefer (k,0); undetermined
// ones carry no preference and so keep two preferred repairs.
type clusters struct {
	m     int
	keyOf []int32 // Zipf rank -> key, a seeded permutation
	undet []bool  // by key
}

func newClusters(seed int64, m int) *clusters {
	rng := rand.New(rand.NewSource(seed))
	c := &clusters{m: m, keyOf: make([]int32, m), undet: make([]bool, m)}
	for i, k := range rng.Perm(m) {
		c.keyOf[i] = int32(k)
	}
	for rank, k := range c.keyOf {
		c.undet[k] = rank%undeterminedEvery == undeterminedEvery-1
	}
	return c
}

func (c *clusters) dataset() dataset {
	r := relSpec{Name: "R", Attrs: [2]string{"K", "V"}, FD: "K -> V"}
	r.Rows = make([][2]int64, 0, 2*c.m)
	for k := 0; k < c.m; k++ {
		r.Rows = append(r.Rows, [2]int64{int64(k), 0}, [2]int64{int64(k), 1})
		if !c.undet[k] {
			r.Prefs = append(r.Prefs, [2]int{2 * k, 2*k + 1})
		}
	}
	return dataset{Rels: []relSpec{r}}
}

// anchorID is the tuple id of (k,0).
func anchorID(k int) int { return 2 * k }

// resolved reports whether the family sees one preferred repair for
// cluster k: the cluster carries a preference and the family honours
// preferences. Rep is the classic consistent-answer semantics over all
// repairs; L-, S-, G- and C-Rep agree on a two-tuple cluster with one
// preference: only the winner's repair is preferred.
func (c *clusters) resolved(family string, k int) bool {
	return !c.undet[k] && family != "rep"
}

// The three point-read shapes and what the paper's semantics answer.
func (c *clusters) ground(family string, k, v int) request {
	ans := "true"
	switch {
	case !c.resolved(family, k):
		ans = "undetermined"
	case v == 1:
		ans = "false"
	}
	return request{Kind: kindQuery, Class: "ground", Family: family,
		Text: fmt.Sprintf("R(%d, %d)", k, v), Answer: ans}
}

func (c *clusters) quantified(family string, k int) request {
	ans := "true"
	if !c.resolved(family, k) {
		ans = "undetermined"
	}
	return request{Kind: kindQuery, Class: "quantified", Family: family,
		Text: fmt.Sprintf("EXISTS v . R(%d, v) AND v < 1", k), Answer: ans}
}

func (c *clusters) openPoint(family string, k int) request {
	req := request{Kind: kindOpen, Class: "open", Family: family, Text: fmt.Sprintf("R(%d, x)", k)}
	if c.resolved(family, k) {
		req.Bindings = []string{"x=0"}
	}
	return req
}

// servingFamily is the family every serving request asks under.
const servingFamily = "global"

// zipfS is the skew of the key popularity: hot query texts repeat, so
// anything keyed by request text (a plan or prepared-statement cache)
// sees a realistic hit rate.
const zipfS = 1.1

// keyStream draws keys by popularity among the first `span` ranks.
type keyStream struct {
	c    *clusters
	zipf *rand.Zipf
}

func (c *clusters) keys(rng *rand.Rand, span int) keyStream {
	return keyStream{c: c, zipf: rand.NewZipf(rng, zipfS, 1, uint64(span-1))}
}

func (s keyStream) next() int { return int(s.c.keyOf[s.zipf.Uint64()]) }

// pointShape is one of the four point-read request shapes.
type pointShape uint8

const (
	shapeGround0 pointShape = iota // R(k, 0)
	shapeGround1                   // R(k, 1)
	shapeQuantified
	shapeOpen
)

// pointReq is a point read before its text is rendered. Streams are
// kept in this form — eight bytes, no pointers — so that the client's
// own garbage collector has nothing to trace while it measures.
type pointReq struct {
	Key   int32
	Shape pointShape
}

// render builds the request and its expected answer under G-Rep.
func (c *clusters) render(p pointReq) request {
	k := int(p.Key)
	switch p.Shape {
	case shapeGround0:
		return c.ground(servingFamily, k, 0)
	case shapeGround1:
		return c.ground(servingFamily, k, 1)
	case shapeQuantified:
		return c.quantified(servingFamily, k)
	default:
		return c.openPoint(servingFamily, k)
	}
}

// pointReads generates n requests of the point_read mix: 50% ground
// (either tuple of the cluster), 30% quantified, 20% open.
func (c *clusters) pointReads(seed int64, n, span int) []pointReq {
	rng := rand.New(rand.NewSource(seed))
	ks := c.keys(rng, span)
	out := make([]pointReq, n)
	for i := range out {
		k := int32(ks.next())
		switch p := rng.Intn(10); {
		case p < 5:
			out[i] = pointReq{k, shapeGround0 + pointShape(p&1)}
		case p < 8:
			out[i] = pointReq{k, shapeQuantified}
		default:
			out[i] = pointReq{k, shapeOpen}
		}
	}
	return out
}

// groundReads generates n ground reads of anchors: the read side of
// write_mix and replica_lag.
func (c *clusters) groundReads(seed int64, n, span int) []pointReq {
	rng := rand.New(rand.NewSource(seed))
	ks := c.keys(rng, span)
	out := make([]pointReq, n)
	for i := range out {
		out[i] = pointReq{int32(ks.next()), shapeGround0}
	}
	return out
}

// analytic is the dataset of analytic_read: one database holding an
// acyclic chain CR(A,B) ⋈ CS(B,C) ⋈ CT(C,D), a cyclic triangle
// TR(A,B) ⋈ TS(B,C) ⋈ TT(C,A) and clusters C(K,V).
//
// The chain relations and C carry key conflicts. All are oriented by a
// preference except analyticUndetermined components each in CR and C:
// a quantified query walks the product of the undetermined components
// it can reach, and the whole-database fallback the product over every
// relation, so their number — not the data size — sets the cost, and
// it is exponential by the paper's complexity results. The triangle
// relations are consistent: that class isolates the join executor.
type analytic struct {
	n      int   // rows per join relation, before conflict twins
	m      int   // clusters in C
	width  int   // candidates of the open range query
	undetC []int // undetermined cluster keys of C, ascending
	undetR []int // undetermined twin keys of CR, ascending
	openLo int   // start of the open range query
}

const (
	analyticUndetermined = 3
	analyticTwins        = 100 // conflicting twin rows per chain relation
	analyticFan          = 20  // triangle fan-out per join value
	analyticOpenShare    = 8   // the open range query spans 1/8 of C's keys
	// Every analyticCertainEvery-th cluster of C prefers (k,0), the others
	// (k,1): the open range query verifies every candidate in its range
	// but only a tenth of them are certain answers, so the reply stays
	// small and encoding it stays out of an engine workload's time.
	analyticCertainEvery = 10
)

func pick(rng *rand.Rand, n, k int) []int {
	out := append([]int(nil), rng.Perm(n)[:k]...)
	sort.Ints(out)
	return out
}

func newAnalytic(seed int64, n, m int) *analytic {
	rng := rand.New(rand.NewSource(seed))
	width := m / analyticOpenShare
	return &analytic{
		n: n, m: m, width: width,
		undetC: pick(rng, m, analyticUndetermined),
		undetR: pick(rng, analyticTwins, analyticUndetermined),
		openLo: rng.Intn(m - width),
	}
}

// contains reports whether ascending xs holds x.
func contains(xs []int, x int) bool {
	_, found := slices.BinarySearch(xs, x)
	return found
}

// dataset lists the relations in load order. CR and C — the only ones
// with more than one preferred repair — come last: the whole-database
// fallback nests its enumeration in this order and re-enumerates only
// the inner relations.
func (a *analytic) dataset() dataset {
	n := int64(a.n)
	// keyed builds a chain relation: rows (off+i, i), a key per row,
	// plus twins (off+j, n+j) that conflict with row j under the key FD.
	keyed := func(name string, attrs [2]string, off int64, undet []int) relSpec {
		r := relSpec{Name: name, Attrs: attrs, FD: attrs[0] + " -> " + attrs[1]}
		for i := int64(0); i < n; i++ {
			r.Rows = append(r.Rows, [2]int64{off + i, i})
		}
		for j := 0; j < analyticTwins; j++ {
			r.Rows = append(r.Rows, [2]int64{off + int64(j), n + int64(j)})
			if !contains(undet, j) {
				r.Prefs = append(r.Prefs, [2]int{j, a.n + j})
			}
		}
		return r
	}
	// CS.C stays below 2n and CT.C starts at 2n: the chain join is
	// empty, so no executor can stop at a first witness.
	cs := keyed("CS", [2]string{"B", "C"}, 0, nil)
	ct := keyed("CT", [2]string{"C", "D"}, 2*n, nil)
	cr := keyed("CR", [2]string{"A", "B"}, 0, a.undetR)

	v := int64(a.n / analyticFan) // distinct values per triangle column
	tr := relSpec{Name: "TR", Attrs: [2]string{"A", "B"}}
	ts := relSpec{Name: "TS", Attrs: [2]string{"B", "C"}}
	tt := relSpec{Name: "TT", Attrs: [2]string{"C", "A"}}
	for i := int64(0); i < n; i++ {
		lo, fan := i%v, (i%v+i/v)%v
		tr.Rows = append(tr.Rows, [2]int64{lo, fan})
		ts.Rows = append(ts.Rows, [2]int64{lo, fan})
		tt.Rows = append(tt.Rows, [2]int64{lo, v + fan}) // TT.A misses TR.A: empty join
	}

	c := relSpec{Name: "C", Attrs: [2]string{"K", "V"}, FD: "K -> V"}
	for k := 0; k < a.m; k++ {
		c.Rows = append(c.Rows, [2]int64{int64(k), 0}, [2]int64{int64(k), 1})
		switch {
		case contains(a.undetC, k):
		case k%analyticCertainEvery == 0:
			c.Prefs = append(c.Prefs, [2]int{2 * k, 2*k + 1})
		default:
			c.Prefs = append(c.Prefs, [2]int{2*k + 1, 2 * k})
		}
	}
	return dataset{Rels: []relSpec{cs, ct, tr, ts, tt, cr, c}}
}

// analyticClass is one query class of a pass: the request, how often a
// pass repeats it, and the executor the planner must pick for it (""
// when the class has no join plan to check).
type analyticClass struct {
	req      request
	reps     int
	executor string
}

// classes returns the six classes of a pass. Repetition counts were
// calibrated once (see README.md) so that each class is 10–25% of a
// pass, and are fixed here: a later change that speeds one class up
// must not be hidden by re-balancing.
func (a *analytic) classes() []analyticClass {
	open := request{Kind: kindOpen, Class: "open_range", Family: "global",
		Text: fmt.Sprintf("C(x, 0) AND x >= %d AND x < %d", a.openLo, a.openLo+a.width)}
	for k := a.openLo; k < a.openLo+a.width; k++ {
		if k%analyticCertainEvery == 0 && !contains(a.undetC, k) {
			open.Bindings = append(open.Bindings, fmt.Sprintf("x=%d", k))
		}
	}
	sort.Strings(open.Bindings)
	repairs := int64(1) << analyticUndetermined
	// The declined query is unsafe (x occurs only under a negation), so
	// the support analysis refuses it and the whole-database fallback
	// answers. Asked about an undetermined cluster its answer is
	// undetermined, which lets the fallback stop at the first two
	// repairs that disagree.
	declinedKey := a.undetC[len(a.undetC)-1]
	return []analyticClass{
		{request{Kind: kindQuery, Class: "chain", Family: "global", Answer: "false",
			Text: "EXISTS a, b, c, d . CR(a, b) AND CS(b, c) AND CT(c, d)"}, 4, "yannakakis"},
		{request{Kind: kindQuery, Class: "triangle", Family: "global", Answer: "false",
			Text: "EXISTS a, b, c . TR(a, b) AND TS(b, c) AND TT(c, a)"}, 5, "wcoj"},
		{request{Kind: kindQuery, Class: "lowsel", Family: "global", Answer: "false",
			Text: "EXISTS k . C(k, 1) AND k < 0"}, 2, "vectorized-greedy"},
		{open, 4, ""},
		{request{Kind: kindCount, Class: "count", Family: "global", Text: "C", Count: repairs}, 27, ""},
		{request{Kind: kindQuery, Class: "declined", Family: "global", Answer: "undetermined",
			Text: fmt.Sprintf("EXISTS x . x = %d AND NOT C(x, 0)", declinedKey)}, 1, ""},
	}
}
