package relation_test

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"prefcqa/internal/relation"
)

// chainModel is one instance version beside what it must hold: the
// tuple of every ID it assigned, and its dead IDs.
type chainModel struct {
	inst *relation.Instance
	rows []relation.Tuple
	dead map[relation.TupleID]bool
}

func newChainModel(s *relation.Schema) *chainModel {
	return &chainModel{inst: relation.NewInstance(s), dead: map[relation.TupleID]bool{}}
}

func (m *chainModel) fork() *chainModel {
	return &chainModel{inst: m.inst.Fork(), rows: slices.Clip(m.rows), dead: maps.Clone(m.dead)}
}

// live returns the live ID holding tup, or -1.
func (m *chainModel) live(tup relation.Tuple) relation.TupleID {
	for id, row := range m.rows {
		if !m.dead[id] && row.Key() == tup.Key() {
			return id
		}
	}
	return -1
}

func (m *chainModel) insert(t *testing.T, tup relation.Tuple) {
	t.Helper()
	want := m.live(tup)
	id, fresh, err := m.inst.Insert(tup)
	switch {
	case err != nil:
		t.Fatalf("Insert%v: %v", tup, err)
	case want >= 0 && (fresh || id != want):
		t.Fatalf("Insert%v = %d, fresh=%v; want the present %d", tup, id, fresh, want)
	case want < 0 && (!fresh || id != len(m.rows)):
		t.Fatalf("Insert%v = %d, fresh=%v; want the fresh %d", tup, id, fresh, len(m.rows))
	case want < 0:
		m.rows = append(m.rows, tup)
	}
}

func (m *chainModel) delete(t *testing.T, id relation.TupleID) {
	t.Helper()
	want := id < len(m.rows) && !m.dead[id]
	if got := m.inst.Delete(id); got != want {
		t.Fatalf("Delete(%d) = %v, want %v", id, got, want)
	}
	if want {
		m.dead[id] = true
	}
}

// check holds the version's partitions on lists, and its Lookup, to a
// map from projection keys to IDs.
func (m *chainModel) check(t *testing.T, lists [][]int, probes []relation.Tuple) {
	t.Helper()
	if m.inst.NumIDs() != len(m.rows) || m.inst.Len() != len(m.rows)-len(m.dead) {
		t.Fatalf("NumIDs %d, Len %d; want %d, %d", m.inst.NumIDs(), m.inst.Len(), len(m.rows), len(m.rows)-len(m.dead))
	}
	for _, attrs := range lists {
		groups := map[string][]relation.TupleID{} // key → members, oldest first
		var order []string                        // keys by first member
		for id, row := range m.rows {
			proj := make(relation.Tuple, len(attrs))
			for i, a := range attrs {
				proj[i] = row[a]
			}
			k := proj.Key()
			if groups[k] == nil {
				order = append(order, k)
			}
			groups[k] = append(groups[k], id)
		}
		part := m.inst.Partition(attrs)
		var wantIDs []relation.TupleID
		var wantEnds []int32
		for _, k := range order {
			members := slices.Clone(groups[k])
			slices.Reverse(members)
			for _, id := range members {
				if got := part.Group(nil, id); !slices.Equal(got, members) {
					t.Fatalf("attrs %v: Group(%d) = %v, want %v", attrs, id, got, members)
				}
				if !m.dead[id] {
					wantIDs = append(wantIDs, id)
				}
			}
			if len(wantIDs) > 0 && (len(wantEnds) == 0 || wantEnds[len(wantEnds)-1] != int32(len(wantIDs))) {
				wantEnds = append(wantEnds, int32(len(wantIDs)))
			}
		}
		gotIDs, gotEnds := part.Groups(nil, nil)
		if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotEnds, wantEnds) {
			t.Fatalf("attrs %v: Groups = %v %v, want %v %v", attrs, gotIDs, gotEnds, wantIDs, wantEnds)
		}
		m.checkProbes(t, attrs, groups, probes)
	}
	for _, tup := range append(probes, m.rows...) {
		want := m.live(tup)
		if id, ok := m.inst.Lookup(tup); ok != (want >= 0) || ok && id != want {
			t.Fatalf("Lookup%v = %d, %v; want %d", tup, id, ok, want)
		}
	}
}

// checkProbes holds the value probes of the partition on attrs — the
// ascending members of a key and their count, and on one attribute the
// distinct values — to groups, the map from projection keys to the
// version's IDs, oldest first.
func (m *chainModel) checkProbes(t *testing.T, attrs []int, groups map[string][]relation.TupleID, probes []relation.Tuple) {
	t.Helper()
	part := m.inst.Partition(attrs)
	buf := []relation.TupleID{-1} // Members appends after what dst holds
	for _, tup := range append(probes, m.rows...) {
		key := make([]relation.Value, len(attrs))
		for i, a := range attrs {
			key[i] = tup[a]
		}
		want := groups[relation.Tuple(key).Key()]
		if got := part.Members(buf[:1], key); got[0] != -1 || !slices.Equal(got[1:], want) {
			t.Fatalf("attrs %v: Members(%v) = %v, want %v", attrs, key, got[1:], want)
		}
		if got := part.Size(key); got != len(want) {
			t.Fatalf("attrs %v: Size(%v) = %d, want %d", attrs, key, got, len(want))
		}
	}
	if len(attrs) != 1 {
		return
	}
	a := attrs[0]
	var all, live []relation.Value
	for _, ids := range groups {
		v := m.rows[ids[0]][a]
		all = append(all, v)
		if slices.ContainsFunc(ids, func(id relation.TupleID) bool { return !m.dead[id] }) {
			live = append(live, v)
		}
	}
	order := func(x, y relation.Value) int { return x.Order(y) }
	slices.SortFunc(live, order)
	got := m.inst.DistinctValuesLive(a, nil)
	slices.SortFunc(got, order)
	if !slices.EqualFunc(got, live, relation.Value.Equal) {
		t.Fatalf("attr %d: DistinctValuesLive = %v, want %v", a, got, live)
	}
	// The chain-wide ones bound the version's values from above: newer
	// versions and sibling chains may add to them.
	sorted := m.inst.SortedDistinctValues(a)
	if !slices.IsSortedFunc(sorted, order) || len(slices.CompactFunc(slices.Clone(sorted), relation.Value.Equal)) != len(sorted) {
		t.Fatalf("attr %d: SortedDistinctValues = %v, not strictly ascending", a, sorted)
	}
	for _, v := range all {
		if _, ok := slices.BinarySearchFunc(sorted, v, order); !ok {
			t.Fatalf("attr %d: SortedDistinctValues = %v misses %v", a, sorted, v)
		}
	}
	if est := m.inst.DistinctEstimate(a); est != len(sorted) {
		t.Fatalf("attr %d: DistinctEstimate = %d, %d sorted distinct values", a, est, len(sorted))
	}
}

var partitionNames = []string{"", "a", "b", "ab", "it's"}

// randomPartitionSchema returns a schema of 2 to 4 int and name
// attributes and 1 to 4 lists of 1 to 3 of its attributes.
func randomPartitionSchema(rng *rand.Rand) (*relation.Schema, [][]int) {
	attrs := make([]relation.Attribute, 2+rng.Intn(3))
	for i := range attrs {
		name := string(rune('A' + i))
		if rng.Intn(2) == 0 {
			attrs[i] = relation.IntAttr(name)
		} else {
			attrs[i] = relation.NameAttr(name)
		}
	}
	lists := make([][]int, 1+rng.Intn(4))
	for i := range lists {
		lists[i] = rng.Perm(len(attrs))[:1+rng.Intn(min(3, len(attrs)))]
	}
	return relation.MustSchema("R", attrs...), lists
}

// partitionTuple draws each cell from a domain of three values.
func partitionTuple(s *relation.Schema, draw func() int) relation.Tuple {
	tup := make(relation.Tuple, s.Arity())
	for a := range tup {
		x := draw() % 3
		if s.Attr(a).Kind == relation.KindInt {
			tup[a] = relation.Int(int64(x))
		} else {
			tup[a] = relation.Name(partitionNames[x+2*(a%2)])
		}
	}
	return tup
}

// TestPartitionMatchesKeyMap drives random streams of inserts, deletes,
// re-inserts (a fresh ID each), forks and sibling forks, and holds every
// pinned version's partitions and Lookup to a map of projection keys —
// once with the seeded hash, once with every probe colliding.
func TestPartitionMatchesKeyMap(t *testing.T) {
	for _, bits := range []uint{64, 2} {
		restore := relation.SetHashBits(bits)
		rng := rand.New(rand.NewSource(int64(bits)))
		for c := 0; c < 40; c++ {
			s, lists := randomPartitionSchema(rng)
			head := newChainModel(s)
			var pins, siblings []*chainModel
			for step := 0; step < 200; step++ {
				switch op := rng.Intn(10); {
				case op < 6:
					head.insert(t, partitionTuple(s, rng.Int))
				case op < 8 && len(head.rows) > 0:
					head.delete(t, rng.Intn(len(head.rows)+1))
				case op < 9:
					pins = append(pins, head)
					head = head.fork()
				case len(pins) > 0:
					// A sibling fork of a pinned version detaches on its
					// first insert; the pin and the chain keep their rows.
					sib := pins[rng.Intn(len(pins))].fork()
					sib.insert(t, partitionTuple(s, rng.Int))
					sib.insert(t, partitionTuple(s, rng.Int))
					siblings = append(siblings, sib)
				}
			}
			probes := []relation.Tuple{partitionTuple(s, rng.Int), partitionTuple(s, rng.Int)}
			for _, m := range slices.Concat(pins, siblings, []*chainModel{head}) {
				m.check(t, lists, probes)
			}
		}
		restore()
	}
}

// FuzzPartition runs a byte program of inserts, deletes, forks and
// sibling forks with every probe colliding, and checks every version it
// pinned against the key map; an insert of opcode 1 also draws a tuple
// that every version is probed for, by Lookup and by value.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 4, 5, 3, 0, 0, 0, 1, 2, 2, 0, 0, 0, 1, 2, 3, 1, 1, 0, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 3, 0, 2, 0, 0, 3, 0, 0, 0, 0, 0, 3, 0, 1, 0, 9, 9, 1, 4, 4})
	f.Fuzz(func(t *testing.T, prog []byte) {
		defer relation.SetHashBits(2)()
		s := relation.MustSchema("R", relation.IntAttr("A"), relation.NameAttr("B"), relation.IntAttr("C"))
		lists := [][]int{{0}, {1}, {0, 1}, {2, 1, 0}}
		head := newChainModel(s)
		pins := []*chainModel{}
		all := []*chainModel{}
		var probes []relation.Tuple
		for i := 0; i+2 < len(prog) && i < 300; i += 3 {
			op, x, y := prog[i]%4, int(prog[i+1]), int(prog[i+2])
			draw := func() int { x, y = y, x/3+y; return x }
			switch {
			case op == 0:
				head.insert(t, partitionTuple(s, draw))
			case op == 1:
				// An insert, and a value probe every pinned version
				// answers at the end.
				head.insert(t, partitionTuple(s, draw))
				probes = append(probes, partitionTuple(s, draw))
			case op == 2 && len(head.rows) > 0:
				head.delete(t, x%len(head.rows))
			case op == 3 && y%2 == 0 || len(pins) == 0:
				pins = append(pins, head)
				head = head.fork()
			default:
				sib := pins[x%len(pins)].fork()
				sib.insert(t, partitionTuple(s, draw))
				all = append(all, sib)
			}
		}
		for _, m := range slices.Concat(pins, all, []*chainModel{head}) {
			m.check(t, lists, probes)
		}
	})
}
