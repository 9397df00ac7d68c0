// Package conflict implements conflict graphs (§2.1): vertices are the
// tuples of an instance, and two tuples are adjacent iff they conflict
// with respect to some functional dependency. Conflict graphs are the
// compact representation of repairs — the set of all repairs equals
// the set of all maximal independent sets of the graph.
//
// The graph is stored in CSR (compressed sparse row) form: one flat
// sorted neighbor array indexed by per-vertex offsets. Memory is
// O(n + m) — n tuples, m conflicts — rather than the O(n²) of a dense
// per-vertex bit matrix, which is what the paper's tractability story
// (sparse conflicts, small components) demands at scale.
//
// Graphs support delta maintenance (ApplyDelta, delta.go): a mutation
// produces a new Graph version that shares the immutable CSR base
// arrays with its parent and carries the differences in persistent
// overlay maps (internal/pmap) it also shares with its parent up to
// the entries it patches, compacted back into a fresh base once they
// grow. Connected components are maintained incrementally and
// identified by IDs that are immutable value identities: any change
// to a component retires its ID and assigns fresh IDs to the results,
// so caches keyed by (era, component ID) never need explicit
// invalidation.
package conflict

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"prefcqa/internal/bitset"
	"prefcqa/internal/fd"
	"prefcqa/internal/pmap"
	"prefcqa/internal/relation"
)

// eraCounter issues globally unique base-generation numbers: every
// Build and every compaction gets a fresh era, so (era, component ID)
// pairs never collide across graphs or across compactions.
var eraCounter atomic.Uint64

// Graph is the conflict graph of an instance with respect to a set of
// functional dependencies. The vertex set is the dense TupleID range
// [0, Len()); tombstoned tuples are isolated, component-less vertices.
// Edges are labelled with the (first) dependency that creates the
// conflict, for explanation output.
//
// A Graph value is immutable once published: ApplyDelta returns a new
// version instead of mutating the receiver, and all versions share
// the immutable base arrays. Reads are safe for concurrent use.
type Graph struct {
	inst *relation.Instance
	fds  *fd.Set

	// Immutable base CSR: the neighbors of vertex v are
	// nbrs[off[v]:off[v+1]], sorted ascending; every conflict is held
	// here twice, once in each endpoint's row, and nowhere else. Rebuilt
	// on compaction.
	off  []int32
	nbrs []int32

	numVerts int    // vertex universe size (live + dead + post-base inserts)
	m        int    // live conflict count
	era      uint64 // base generation; fresh after Build and after compaction

	// deadBase are the vertices that were already tombstoned when the
	// base was built (nil when none); vertices deleted since then are
	// recorded in vertComp as -1.
	deadBase *bitset.Set

	// Delta overlay (empty on a statically built graph): full
	// replacement adjacency rows for the vertices whose neighborhood
	// changed since the base. A row here shadows the vertex's base row.
	rows pmap.Map[[]int32]

	// Component bookkeeping. The base arrays are computed lazily once
	// and never change; overlay maps carry reassignments. Base
	// component i, in min-vertex order, is the sorted run
	// members[start[i]:start[i+1]]; overlay components take IDs from
	// nextCompID.
	compsOnce  sync.Once
	members    []int           // base components' vertices, one flat array
	start      []int32         // base component ID -> its run in members; len = components + 1
	compID     []int32         // base vertex -> component ID (-1: dead at base)
	localIdx   []int32         // base vertex -> position in its sorted component
	compOver   pmap.Map[[]int] // component ID -> members; nil members = retired base ID
	vertComp   pmap.Map[int32] // vertex -> current component ID (-1: deleted)
	nextCompID int32
	compList   atomic.Pointer[componentListing] // cached live listing
}

// componentListing is the materialized list of live components in
// min-vertex order, with the parallel component IDs.
type componentListing struct {
	comps [][]int
	ids   []int32
}

// Edge is one conflict: tuples A < B violating dependency FD (index
// into the dependency set).
type Edge struct {
	A, B relation.TupleID
	FD   int
}

// Build computes the conflict graph of the instance. Conflicting pairs
// are discovered per dependency off the partition on its LHS
// (fd.Set.Violations) and streamed straight into CSR form, a degree
// pass and then a fill pass, so both time and memory are linear in |r|
// plus the number of conflicts. Tombstoned tuples become isolated
// vertices outside every component.
func Build(inst *relation.Instance, fds *fd.Set) (*Graph, error) {
	if !inst.Schema().Equal(fds.Schema()) {
		return nil, fmt.Errorf("conflict: instance schema %s does not match dependency schema %s",
			inst.Schema(), fds.Schema())
	}
	n := inst.NumIDs()
	g := &Graph{inst: inst, fds: fds, numVerts: n, era: eraCounter.Add(1), deadBase: inst.DeadIDs()}
	// Violations are sorted by (T1, T2, FD); a pair equal to the one
	// before it is the same conflict under a second dependency, which
	// adds no edge.
	viols := fds.Violations(inst)
	repeat := func(i int) bool { return i > 0 && viols[i-1].T1 == viols[i].T1 && viols[i-1].T2 == viols[i].T2 }
	// The degrees count into index v+2, so that after the prefix sum
	// off[v+1] is the start of row v and serves as its fill cursor; once
	// filled it is the row's end, and off[:n+1] is the CSR index.
	off := make([]int32, n+2)
	for i, v := range viols {
		if !repeat(i) {
			off[v.T1+2]++
			off[v.T2+2]++
			g.m++
		}
	}
	for v := 2; v < n+2; v++ {
		off[v] += off[v-1]
	}
	// Each row receives first its smaller neighbors (ascending) and then
	// its larger ones (ascending): rows come out sorted with no extra
	// sort.
	g.nbrs = make([]int32, 2*g.m)
	for i, v := range viols {
		if !repeat(i) {
			g.nbrs[off[v.T1+1]] = int32(v.T2)
			off[v.T1+1]++
			g.nbrs[off[v.T2+1]] = int32(v.T1)
			off[v.T2+1]++
		}
	}
	g.off = off[:n+1]
	return g, nil
}

// MustBuild is Build that panics on error, for fixtures.
func MustBuild(inst *relation.Instance, fds *fd.Set) *Graph {
	g, err := Build(inst, fds)
	if err != nil {
		panic(err)
	}
	return g
}

// Len returns the size of the vertex universe (live tuples plus
// tombstones).
func (g *Graph) Len() int { return g.numVerts }

// NumEdges returns the number of live conflicts.
func (g *Graph) NumEdges() int { return g.m }

// Era returns the base-generation number: globally unique per Build
// and per compaction. Together with component IDs it forms a stable
// cache identity for per-component results.
func (g *Graph) Era() uint64 { return g.era }

// Live reports whether v is a live (non-deleted) vertex.
func (g *Graph) Live(v relation.TupleID) bool {
	if v < 0 || v >= g.numVerts {
		return false
	}
	if c, ok := g.vertComp.Get(v); ok {
		return c >= 0
	}
	return g.deadBase == nil || !g.deadBase.Has(v)
}

// LiveSet returns the set of live vertices.
func (g *Graph) LiveSet() *bitset.Set {
	s := bitset.Full(g.numVerts)
	if g.deadBase != nil {
		s.DifferenceWith(g.deadBase)
	}
	g.vertComp.Range(func(v int, c int32) bool {
		if c < 0 {
			s.Remove(v)
		}
		return true
	})
	return s
}

// Edges returns the live conflicts (A < B, sorted by (A, B)), read off
// the rows: every live vertex's row holds exactly its live neighbors,
// and a dead vertex's row is empty. Each edge is labelled with the
// first dependency its tuples violate. O(n + m).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for a := range g.numVerts {
		for _, b := range g.Neighbors(a) {
			if b := int(b); b > a {
				out = append(out, Edge{A: a, B: b, FD: g.witness(a, b)})
			}
		}
	}
	return out
}

// witness returns the first dependency tuples a and b violate, the
// label Build gives their edge.
func (g *Graph) witness(a, b relation.TupleID) int {
	for i := 0; i < g.fds.Len(); i++ {
		if g.fds.FD(i).ConflictsAt(g.inst, a, b) {
			return i
		}
	}
	panic(fmt.Sprintf("conflict: adjacent tuples %d and %d violate no dependency", a, b))
}

// Adjacent reports whether tuples a and b conflict, by binary search
// in a's neighbor row.
func (g *Graph) Adjacent(a, b relation.TupleID) bool {
	if a < 0 || a >= g.numVerts {
		return false
	}
	_, ok := slices.BinarySearch(g.Neighbors(a), int32(b))
	return ok
}

// Neighbors returns n(t): the tuples conflicting with t, as a sorted
// slice view. The caller must not mutate it.
func (g *Graph) Neighbors(t relation.TupleID) []int32 {
	if r, ok := g.rows.Get(t); ok {
		return r
	}
	if t >= len(g.off)-1 {
		return nil // post-base vertex with no conflicts
	}
	return g.nbrs[g.off[t]:g.off[t+1]]
}

// Degree returns |n(t)|.
func (g *Graph) Degree(t relation.TupleID) int { return len(g.Neighbors(t)) }

// IsIndependent reports whether no two tuples in the set conflict,
// i.e. the selected sub-instance is consistent.
func (g *Graph) IsIndependent(s *bitset.Set) bool {
	ok := true
	s.Range(func(t int) bool {
		if t >= g.numVerts {
			return true
		}
		for _, u := range g.Neighbors(t) {
			if s.Has(int(u)) {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// IsMaximalIndependent reports whether s is a repair: a subset of the
// live instance, independent, and not extendable — every live tuple
// outside s conflicts with some tuple in s (Definition 1). Sets
// containing tombstoned tuples are never repairs.
func (g *Graph) IsMaximalIndependent(s *bitset.Set) bool {
	live := true
	s.Range(func(v int) bool {
		live = g.Live(v)
		return live
	})
	if !live || !g.IsIndependent(s) {
		return false
	}
	for t := 0; t < g.numVerts; t++ {
		if s.Has(t) || !g.Live(t) {
			continue
		}
		blocked := false
		for _, u := range g.Neighbors(t) {
			if s.Has(int(u)) {
				blocked = true
				break
			}
		}
		if !blocked {
			return false
		}
	}
	return true
}

// ensureComps computes the base component arrays once. On graphs that
// undergo deltas the base is always computed before the first fork,
// so the overlay is never patched while the base is missing.
func (g *Graph) ensureComps() {
	g.compsOnce.Do(g.computeComponents)
}

// Components returns the live connected components as sorted vertex
// lists, ordered by smallest vertex. Isolated live vertices (tuples in
// no conflict) form singleton components; tombstoned tuples belong to
// no component. The result is memoized per graph version and safe for
// concurrent use; callers must not mutate it.
func (g *Graph) Components() [][]int {
	return g.listing().comps
}

// ComponentsWithIDs returns the live components in min-vertex order
// together with their component IDs. Callers must not mutate either
// slice.
func (g *Graph) ComponentsWithIDs() ([][]int, []int32) {
	l := g.listing()
	return l.comps, l.ids
}

func (g *Graph) listing() *componentListing {
	if l := g.compList.Load(); l != nil {
		return l
	}
	g.ensureComps()
	// The base components are already in min-vertex order; only the
	// (small) overlay needs sorting. A linear merge of the two keeps
	// the listing O(C + overlay log overlay) — it is built once per
	// published version, for the first caller that wants all of it.
	type entry struct {
		members []int
		id      int32
	}
	over := make([]entry, 0, g.compOver.Len())
	var retired []int // base IDs, ascending like the overlay's keys
	g.compOver.Range(func(id int, c []int) bool {
		if c != nil {
			over = append(over, entry{members: c, id: int32(id)})
		} else {
			retired = append(retired, id)
		}
		return true
	})
	sort.Slice(over, func(i, j int) bool { return over[i].members[0] < over[j].members[0] })
	base := g.baseComps()
	n := base - len(retired) + len(over)
	l := &componentListing{comps: make([][]int, 0, n), ids: make([]int32, 0, n)}
	oi := 0
	for i := 0; i < base; i++ {
		if len(retired) > 0 && retired[0] == i {
			retired = retired[1:]
			continue
		}
		c := g.baseComp(i)
		for oi < len(over) && over[oi].members[0] < c[0] {
			l.comps = append(l.comps, over[oi].members)
			l.ids = append(l.ids, over[oi].id)
			oi++
		}
		l.comps = append(l.comps, c)
		l.ids = append(l.ids, int32(i))
	}
	for ; oi < len(over); oi++ {
		l.comps = append(l.comps, over[oi].members)
		l.ids = append(l.ids, over[oi].id)
	}
	g.compList.Store(l)
	return l
}

// NumComponents returns the number of live components, without
// building the listing Components returns.
func (g *Graph) NumComponents() int {
	g.ensureComps()
	n := g.baseComps()
	g.compOver.Range(func(_ int, c []int) bool {
		if c != nil {
			n++ // a fresh component
		} else {
			n-- // a retired base ID
		}
		return true
	})
	return n
}

// baseComps returns the number of base component IDs.
func (g *Graph) baseComps() int { return len(g.start) - 1 }

// baseComp returns the members of base component i as a
// capacity-limited view of the flat array.
func (g *Graph) baseComp(i int) []int {
	s, e := g.start[i], g.start[i+1]
	return g.members[s:e:e]
}

// ComponentOf returns the ID of the component containing vertex v, or
// -1 if v is tombstoned. IDs are immutable value identities: any
// change to a component retires its ID (see ApplyDelta). On a
// statically built graph IDs coincide with positions in Components().
func (g *Graph) ComponentOf(v relation.TupleID) int {
	g.ensureComps()
	if c, ok := g.vertComp.Get(v); ok {
		return int(c)
	}
	if v < 0 || v >= len(g.compID) {
		return -1
	}
	return int(g.compID[v])
}

// Component returns the sorted member list of the component with the
// given ID, or nil if the ID is retired or unknown. Callers must not
// mutate the result.
func (g *Graph) Component(id int) []int {
	g.ensureComps()
	if m, ok := g.compOver.Get(id); ok {
		return m
	}
	if id >= 0 && id < g.baseComps() {
		return g.baseComp(id)
	}
	return nil
}

// LocalIndexOf returns v's position within its sorted component — the
// component-local index used by the projection machinery — or -1 for
// tombstoned vertices.
func (g *Graph) LocalIndexOf(v relation.TupleID) int {
	g.ensureComps()
	if cid, ok := g.vertComp.Get(v); ok {
		if cid < 0 {
			return -1
		}
		// Reassigned vertices always live in overlay components.
		members, _ := g.compOver.Get(int(cid))
		return sort.SearchInts(members, v)
	}
	if v < 0 || v >= len(g.localIdx) {
		return -1
	}
	return int(g.localIdx[v])
}

// computeComponents lays the live components out in the flat base
// arrays: a walk from each unvisited live vertex, in ascending order,
// appends its component to members — the run it grows is its own
// queue — and sorts the run in place. O(n + m) time and a fixed
// number of allocations, however many components there are.
func (g *Graph) computeComponents() {
	n := g.numVerts
	g.compID = make([]int32, n)
	g.localIdx = make([]int32, n)
	for i := range g.compID {
		g.compID[i] = -1
	}
	live := n
	if g.deadBase != nil {
		live -= g.deadBase.Len()
	}
	members := make([]int, 0, live)
	comps := int32(0)
	for v := 0; v < n; v++ {
		if g.compID[v] >= 0 || (g.deadBase != nil && g.deadBase.Has(v)) {
			continue
		}
		s := len(members)
		members = append(members, v)
		g.compID[v] = comps
		for q := s; q < len(members); q++ {
			for _, u := range g.Neighbors(members[q]) {
				if g.compID[u] < 0 {
					g.compID[u] = comps
					members = append(members, int(u))
				}
			}
		}
		run := members[s:]
		slices.Sort(run)
		for i, m := range run {
			g.localIdx[m] = int32(i)
		}
		comps++
	}
	// Runs follow one another in ID order: each starts where the
	// component ID changes.
	start := make([]int32, comps+1)
	for i, m := range members {
		if i == 0 || g.compID[m] != g.compID[members[i-1]] {
			start[g.compID[m]] = int32(i)
		}
	}
	start[comps] = int32(len(members))
	g.members, g.start = members, start
	g.nextCompID = comps
}

// ComponentSignature returns a canonical encoding of the subgraph
// induced by comp (a sorted vertex list, as produced by Components):
// vertices are renumbered to local indices 0..k-1 in sorted order and
// the induced edges are listed in lexicographic order. Two components
// — of the same graph or of different graphs — have equal signatures
// iff the order-preserving renumbering of their vertex lists is a
// graph isomorphism between them. Signatures are therefore stable
// across instances and are the cache key of the memoizing evaluation
// engine.
func (g *Graph) ComponentSignature(comp []int) string {
	var b strings.Builder
	b.Grow(4 + 6*len(comp))
	b.WriteString(strconv.Itoa(len(comp)))
	b.WriteByte(';')
	for i, v := range comp {
		for _, u := range g.Neighbors(v) {
			j := sort.SearchInts(comp, int(u))
			if j < len(comp) && comp[j] == int(u) && j > i {
				b.WriteString(strconv.Itoa(i))
				b.WriteByte('-')
				b.WriteString(strconv.Itoa(j))
				b.WriteByte(';')
			}
		}
	}
	return b.String()
}

// DOT renders the graph in Graphviz format with tuple labels, matching
// the paper's figures.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s {\n", g.inst.Schema().Name())
	for t := 0; t < g.numVerts; t++ {
		if !g.Live(t) {
			continue
		}
		fmt.Fprintf(&b, "  t%d [label=%q];\n", t, g.inst.Tuple(t).String())
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  t%d -- t%d [label=%q];\n", e.A, e.B, g.fds.FD(e.FD).String())
	}
	b.WriteString("}\n")
	return b.String()
}

// ASCII renders a deterministic textual adjacency listing; tests print
// it when a graph-shaped assertion fails.
func (g *Graph) ASCII() string {
	var b strings.Builder
	for t := 0; t < g.numVerts; t++ {
		if !g.Live(t) {
			continue
		}
		fmt.Fprintf(&b, "%-28s --", g.inst.Tuple(t).String())
		if g.Degree(t) == 0 {
			b.WriteString(" (no conflicts)")
		}
		for _, u := range g.Neighbors(t) {
			b.WriteByte(' ')
			b.WriteString(g.inst.Tuple(int(u)).String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
