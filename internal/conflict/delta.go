package conflict

import (
	"fmt"
	"slices"
	"sort"

	"prefcqa/internal/pmap"
	"prefcqa/internal/relation"
)

// This file implements delta maintenance of conflict graphs: instead
// of rebuilding the graph (and its components) after every Insert or
// Delete, ApplyDelta patches a persistent overlay over the immutable
// CSR base — O((touched neighborhood + touched components) · log n)
// per mutation, nothing proportional to the overlay or the instance —
// and folds the overlay back into a fresh base once it grows past a
// threshold (amortized O(1) per mutation).
//
// Version model: a Graph is immutable once published. ApplyDelta
// forks the receiver — sharing the base arrays and the overlay maps,
// which are persistent (internal/pmap): a patch copies the few trie
// nodes above the entry it writes and the parent never sees it —
// patches the fork, and returns it. Readers holding the old version
// keep a consistent view; the writer publishes the new one.
// Component IDs are immutable value identities: any change
// to a component (membership via insert/delete, or orientation via
// Touch) retires its ID and assigns fresh IDs to the results, which
// is what lets per-component caches skip explicit invalidation — a
// retired ID is simply never asked for again by new versions.

// Delta is one batch of instance mutations to apply to a graph.
// Inserts lists tuple IDs appended to the instance since the graph's
// version; Deletes lists IDs that are now tombstoned. A tuple both
// inserted and deleted within the batch appears in both lists: all
// inserts are applied before all deletes, so the delta wires it in
// and back out (TestApplyDeltaInsertThenDeleteSameBatch pins this).
type Delta struct {
	Inserts []relation.TupleID
	Deletes []relation.TupleID
}

// DeltaReport describes what a delta changed: the component IDs it
// retired and created, edge-count movement, and whether the overlay
// was compacted into a fresh base (which renumbers every component
// under a fresh Era).
type DeltaReport struct {
	Retired      []int32
	Fresh        []int32
	AddedEdges   int
	RemovedEdges int
	Compacted    bool
}

// overlay size thresholds: compaction triggers when either map
// outgrows its bound. Forking does not depend on the overlay's size;
// what the bound trades against compaction frequency (amortized
// O(n + m) / threshold per mutation) is the share of reads that go
// through a trie instead of the flat base arrays, and the memory the
// overlay and the rows it shadows hold: with n/64 compaction amortizes
// to a few microseconds per mutation and the overlay stays a few
// hundred kilobytes at 100k tuples.
func (g *Graph) overlayTooBig() bool {
	return g.rows.Len() > 64+g.numVerts/64 || g.vertComp.Len() > 64+g.numVerts/32
}

// fork returns a writable child of g bound to the given (newer)
// instance version. The base arrays and the overlay are shared: the
// maps are persistent, so copying their three words is the fork, at a
// cost independent of how much they hold.
func (g *Graph) fork(inst *relation.Instance) *Graph {
	g.ensureComps()
	ng := &Graph{
		inst: inst, fds: g.fds,
		off: g.off, nbrs: g.nbrs,
		numVerts: inst.NumIDs(), m: g.m, era: g.era,
		deadBase: g.deadBase,
		rows:     g.rows,
		members:  g.members, start: g.start, compID: g.compID, localIdx: g.localIdx,
		compOver: g.compOver, vertComp: g.vertComp,
		nextCompID: g.nextCompID,
	}
	ng.compsOnce.Do(func() {}) // base arrays inherited, never recompute
	return ng
}

// ApplyDelta returns a new graph version reflecting the batch of
// instance mutations, leaving the receiver untouched, together with a
// report of the component churn. inst must be the instance version
// the delta produced (a descendant of the receiver's instance):
// inserted IDs are appended IDs, deleted IDs must have been live.
//
// Cost is O(Σ touched neighborhoods + Σ touched component sizes)
// overlay patches of O(log n) small node copies each, plus an
// amortized O(n + m) share of the periodic compaction — versus
// O(n + m) for every full rebuild.
func (g *Graph) ApplyDelta(inst *relation.Instance, d Delta) (*Graph, *DeltaReport, error) {
	if !inst.Schema().Equal(g.inst.Schema()) {
		return nil, nil, fmt.Errorf("conflict: delta instance schema %s does not match graph schema %s",
			inst.Schema(), g.inst.Schema())
	}
	if inst.NumIDs() < g.numVerts {
		return nil, nil, fmt.Errorf("conflict: delta instance has %d IDs, graph has %d", inst.NumIDs(), g.numVerts)
	}
	ng := g.fork(inst)
	rep := &DeltaReport{}
	for _, t := range d.Inserts {
		if t < g.numVerts {
			return nil, nil, fmt.Errorf("conflict: inserted ID %d is not new (universe was %d)", t, g.numVerts)
		}
		ng.insertVertex(t, rep)
	}
	for _, v := range d.Deletes {
		if !ng.Live(v) {
			return nil, nil, fmt.Errorf("conflict: deleted ID %d is not live", v)
		}
		ng.deleteVertex(v, rep)
	}
	if ng.overlayTooBig() {
		ng.compact()
		rep.Compacted = true
	}
	return ng, rep, nil
}

// retireComp marks a component ID as no longer current.
func (g *Graph) retireComp(id int32, rep *DeltaReport) {
	if int(id) < g.baseComps() {
		g.compOver.Set(int(id), nil) // tombstone a base ID
	} else {
		g.compOver.Delete(int(id))
	}
	rep.Retired = append(rep.Retired, id)
}

// newComp registers a fresh component with the given sorted members
// and reassigns them to it.
func (g *Graph) newComp(members []int, rep *DeltaReport) int32 {
	id := g.nextCompID
	g.nextCompID++
	g.compOver.Set(int(id), members)
	for _, m := range members {
		g.vertComp.Set(m, id)
	}
	rep.Fresh = append(rep.Fresh, id)
	return id
}

// insertVertex wires a newly inserted tuple into the graph: partners
// are found in its LHS groups, adjacency rows are patched, and the
// partner components (if any) merge with t into one fresh component.
func (g *Graph) insertVertex(t relation.TupleID, rep *DeltaReport) {
	// Discover conflict partners per dependency. A group holds every ID
	// of the chain; a partner is a member the graph already holds — live
	// and wired, by the old version or earlier in this batch — so the
	// edge to a member inserted later in the batch is wired from that
	// member's side, and a member deleted in this batch is unwired by
	// its own delete. Partner probes compare column cells by ID — no
	// tuple materialization. A partner under two dependencies is found
	// twice; sorting puts the two side by side.
	var partners []int32
	var grp []relation.TupleID
	for fi := range g.fds.Len() {
		f := g.fds.FD(fi)
		grp = f.Partition(g.inst).Group(grp[:0], t)
		for _, c := range grp {
			if g.ComponentOf(c) >= 0 && f.ConflictsAt(g.inst, t, c) {
				partners = append(partners, int32(c))
			}
		}
	}
	g.compList.Store((*componentListing)(nil))
	if len(partners) == 0 {
		g.newComp([]int{t}, rep)
		return
	}
	slices.Sort(partners)
	partners = slices.Compact(partners)
	g.rows.Set(t, partners)
	for _, c := range partners {
		g.rows.Set(int(c), insertSorted(g.Neighbors(int(c)), int32(t)))
	}
	g.m += len(partners)
	rep.AddedEdges += len(partners)
	// Merge the partner components and t into one fresh component. A
	// component two partners share resolves to nil for the second one:
	// the first retired it.
	var members []int
	for _, c := range partners {
		cid := g.ComponentOf(int(c))
		old := g.Component(cid)
		if old == nil {
			continue
		}
		members = append(members, old...)
		g.retireComp(int32(cid), rep)
	}
	members = append(members, t)
	sort.Ints(members)
	g.newComp(members, rep)
}

// deleteVertex unwires a tombstoned tuple: its neighbors' rows are
// patched, incident edges leave the live set, and its component is
// re-split by a walk bounded by the component size.
func (g *Graph) deleteVertex(v relation.TupleID, rep *DeltaReport) {
	g.compList.Store((*componentListing)(nil))
	nbrs := append([]int32(nil), g.Neighbors(v)...)
	for _, u := range nbrs {
		g.rows.Set(int(u), removeSorted(g.Neighbors(int(u)), int32(v)))
	}
	g.rows.Set(v, nil)
	g.m -= len(nbrs)
	rep.RemovedEdges += len(nbrs)

	cid := int32(g.ComponentOf(v))
	old := g.Component(int(cid))
	g.retireComp(cid, rep)
	g.vertComp.Set(v, -1)
	if len(old) == 1 {
		return // v was a singleton
	}
	// Re-split the remaining members by BFS over the patched rows.
	visited := make(map[int]bool, len(old))
	for _, s := range old {
		if s == v || visited[s] {
			continue
		}
		frag := []int{s}
		visited[s] = true
		for q := 0; q < len(frag); q++ {
			for _, u := range g.Neighbors(frag[q]) {
				if !visited[int(u)] {
					visited[int(u)] = true
					frag = append(frag, int(u))
				}
			}
		}
		sort.Ints(frag)
		g.newComp(frag, rep)
	}
}

// Touch retires the component containing v and re-registers the same
// members under a fresh ID, returning (retired, fresh). It marks the
// component dirty for (era, component ID)-keyed caches when something
// the graph cannot see changed — a preference orientation on one of
// its edges. Touch is a writer-side operation: call it only on a
// version produced by ApplyDelta that has not been published yet.
func (g *Graph) Touch(v relation.TupleID) (int32, int32) {
	g.ensureComps()
	cid := int32(g.ComponentOf(v))
	if cid < 0 {
		return -1, -1
	}
	members := g.Component(int(cid))
	var rep DeltaReport
	g.retireComp(cid, &rep)
	fresh := g.newComp(members, &rep)
	g.compList.Store((*componentListing)(nil))
	return cid, fresh
}

// compact folds the overlay into a fresh immutable base: new CSR
// arrays copied from the live rows, freshly numbered components, and a
// new Era. O(n + m); amortized over the mutations that grew the
// overlay.
func (g *Graph) compact() {
	n := g.numVerts
	off := make([]int32, n+1)
	for v := range n {
		off[v+1] = off[v] + int32(len(g.Neighbors(v)))
	}
	nbrs := make([]int32, off[n])
	for v := range n {
		copy(nbrs[off[v]:], g.Neighbors(v))
	}
	g.off, g.nbrs = off, nbrs
	g.rows = pmap.Map[[]int32]{}
	g.deadBase = g.inst.DeadIDs()
	g.compOver = pmap.Map[[]int]{}
	g.vertComp = pmap.Map[int32]{}
	g.computeComponents()
	g.era = eraCounter.Add(1)
	g.compList.Store((*componentListing)(nil))
}

// insertSorted returns a fresh sorted slice = row ∪ {v}.
func insertSorted(row []int32, v int32) []int32 {
	i, found := slices.BinarySearch(row, v)
	if found {
		return row
	}
	return slices.Insert(slices.Clip(row), i, v)
}

// removeSorted returns a fresh sorted slice = row \ {v}.
func removeSorted(row []int32, v int32) []int32 {
	i, found := slices.BinarySearch(row, v)
	if !found {
		return row
	}
	return slices.Concat(row[:i], row[i+1:])
}
