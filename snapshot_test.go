package prefcqa

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"prefcqa/internal/core"
	"prefcqa/internal/cqa"
	"prefcqa/internal/priority"
)

// TestSnapshotPinsVersion verifies snapshot isolation: results read
// through a snapshot are unaffected by any amount of later mutation.
func TestSnapshotPinsVersion(t *testing.T) {
	db, r := newMutDB(t)
	a := r.MustInsert(1, 0)
	b := r.MustInsert(1, 1)
	if err := r.Prefer(a, b); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantCount, err := snap.CountRepairs(Global, "R")
	if err != nil {
		t.Fatal(err)
	}
	if wantCount != 1 {
		t.Fatalf("G-Rep count = %d, want 1", wantCount)
	}
	wantAns, err := snap.Query(Global, "R(1, 0)")
	if err != nil {
		t.Fatal(err)
	}
	wantVer := snap.Versions()["R"]

	// Mutate heavily: delete both pinned tuples, add new conflicts.
	r.Delete(a)
	r.Delete(b)
	for i := 0; i < 50; i++ {
		r.MustInsert(int64(10+i/2), int64(i%2))
	}
	if _, err := db.Query(Rep, "R(1, 0)"); err != nil {
		t.Fatal(err)
	}

	// The snapshot still answers from its pinned version.
	gotCount, err := snap.CountRepairs(Global, "R")
	if err != nil {
		t.Fatal(err)
	}
	gotAns, err := snap.Query(Global, "R(1, 0)")
	if err != nil {
		t.Fatal(err)
	}
	if gotCount != wantCount || gotAns != wantAns {
		t.Fatalf("snapshot drifted: count %d→%d, answer %v→%v", wantCount, gotCount, wantAns, gotAns)
	}
	if got := snap.Versions()["R"]; got != wantVer {
		t.Fatalf("snapshot version drifted: %d → %d", wantVer, got)
	}
	inst, ok := snap.Instance("R")
	if !ok || !inst.Live(a) || !inst.Live(b) {
		t.Fatal("snapshot instance lost its pinned tuples")
	}
	// The live DB, by contrast, has moved on.
	liveAns, err := db.Query(Global, "R(1, 0)")
	if err != nil {
		t.Fatal(err)
	}
	if liveAns != False {
		t.Fatalf("live DB still answers %v for a deleted tuple", liveAns)
	}
}

// TestConcurrentQueriesAndMutations is the -race exercise for the
// snapshot-isolated mutation model: one writer streams point
// mutations while reader goroutines continuously query the live DB
// and pinned snapshots. Correctness of individual answers is covered
// by the property tests; this test asserts freedom from data races
// and that every read observes an internally consistent version
// (counts from a snapshot never change).
func TestConcurrentQueriesAndMutations(t *testing.T) {
	db, r := newMutDB(t)
	for i := 0; i < 40; i++ {
		r.MustInsert(int64(i/2), int64(i%2))
	}
	if _, err := db.Query(Rep, "R(0, 0)"); err != nil {
		t.Fatal(err) // publish the first version before racing
	}

	const (
		readers   = 4
		mutations = 300
		reads     = 150
	)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer stop.Store(true)
		nextKey := int64(1000)
		for i := 0; i < mutations; i++ {
			switch i % 3 {
			case 0:
				r.MustInsert(nextKey, 0)
				r.MustInsert(nextKey, 1)
				nextKey++
			case 1:
				inst := r.Instance()
				// Delete the smallest live tuple.
				if ids := inst.AllIDs(); !ids.Empty() {
					r.Delete(ids.Min())
				}
			default:
				g, err := r.Graph()
				if err != nil {
					errs <- err
					return
				}
				if es := g.Edges(); len(es) > 0 {
					e := es[i%len(es)]
					// Smaller ID dominates: acyclic by construction.
					if err := r.Prefer(e.A, e.B); err != nil {
						errs <- err
						return
					}
				}
			}
		}
	}()

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reads && !stop.Load(); i++ {
				if i%4 == 0 {
					snap, err := db.Snapshot()
					if err != nil {
						errs <- fmt.Errorf("reader %d: snapshot: %w", w, err)
						return
					}
					c1, err := snap.CountRepairs(Local, "R")
					if err != nil {
						errs <- err
						return
					}
					if _, err := snap.Query(Global, "R(0, 0)"); err != nil {
						errs <- err
						return
					}
					// Quantified: the component-pruned vectorized
					// verification must be race-free on snapshots too.
					if _, err := snap.Query(Global, "EXISTS v . R(0, v) AND v >= 0"); err != nil {
						errs <- err
						return
					}
					c2, err := snap.CountRepairs(Local, "R")
					if err != nil {
						errs <- err
						return
					}
					if c1 != c2 {
						errs <- fmt.Errorf("reader %d: snapshot count moved %d → %d", w, c1, c2)
						return
					}
				} else {
					if _, err := db.Query(Rep, "R(0, 1)"); err != nil {
						errs <- fmt.Errorf("reader %d: query: %w", w, err)
						return
					}
					if _, err := db.CountRepairs(Common, "R"); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDBQueryIsOneCutUnderWrites is the -race check of the DB-level
// reads' delegation to Snapshot: a writer keeps a cross-relation
// invariant true at every instant — B(k, 0) exists only while A(k, 0)
// is in every G-repair of A — through inserts, a preference and
// deletes, so any verdict of the invariant query other than true is
// one no single snapshot would give: relation A read at one moment
// and relation B at another.
func TestDBQueryIsOneCutUnderWrites(t *testing.T) {
	db := New()
	a, err := db.CreateRelation("A", IntAttr("K"), IntAttr("V"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddFD("K -> V"); err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateRelation("B", IntAttr("K"), IntAttr("V"))
	if err != nil {
		t.Fatal(err)
	}
	const invariant = "FORALL k . NOT B(k, 0) OR A(k, 0)"

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ans, err := db.Query(Global, invariant)
				if err == nil && ans != True {
					err = fmt.Errorf("%s = %v under writes, want true", invariant, ans)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	type row struct{ a0, a1, b0 TupleID }
	var live []row
	for k := int64(0); k < 300 && len(errs) == 0; k++ {
		var r row
		r.a0 = a.MustInsert(k, 0)
		r.a1 = a.MustInsert(k, 1) // conflicts with a0: A(k, 0) is now disputed
		if err := a.Prefer(r.a0, r.a1); err != nil {
			t.Fatal(err)
		}
		r.b0 = b.MustInsert(k, 0) // only now, with A(k, 0) certain
		live = append(live, r)
		if len(live) > 8 {
			old := live[0]
			live = live[1:]
			for _, del := range []struct {
				rel *Relation
				id  TupleID
			}{{b, old.b0}, {a, old.a0}, {a, old.a1}} {
				if _, err := del.rel.Delete(del.id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSnapshotPinsSurviveUpdateCycle is the -race check of version
// derivation by sharing: while a writer runs update iterations (each
// derives three versions from overlays and indexes it shares with
// every version before it, through compactions and flattens), readers
// keep reading snapshots pinned along the way — the repairs in order,
// their count, a point query per cluster — and every pin must go on
// answering what the sequential engine gets on a rebuild of the pin's
// own instance with the preferences stated up to the pin.
func TestSnapshotPinsSurviveUpdateCycle(t *testing.T) {
	const clusters, iterations, readers = 10, 240, 2
	type pin struct {
		snap  *Snapshot
		prefs [][2]TupleID
		// The reference, filled in by the reader on first use.
		repairs []string
		verdict []Answer // of R(k, 0), per cluster
	}
	check := func(p *pin) error {
		if p.repairs == nil {
			built := builtOf(p.snap, "R")
			ref, err := cqa.NewRelation(built.Inst, built.FDs)
			if err != nil {
				return err
			}
			pri, err := priority.FromRelation(ref.Pri.Graph(), p.prefs)
			if err != nil {
				return err
			}
			sets := core.Sequential().All(Global, pri)
			for _, set := range sets {
				p.repairs = append(p.repairs, built.Inst.Subset(set).String())
			}
			for k := 0; k < clusters; k++ {
				in := 0
				if id, ok := built.Inst.Lookup(Tuple{Int(int64(k)), Int(0)}); ok {
					for _, set := range sets {
						if set.Has(id) {
							in++
						}
					}
				}
				switch in {
				case len(sets):
					p.verdict = append(p.verdict, True)
				case 0:
					p.verdict = append(p.verdict, False)
				default:
					p.verdict = append(p.verdict, Undetermined)
				}
			}
		}
		reps, err := p.snap.Repairs(Global, "R")
		if err != nil {
			return err
		}
		if n, err := p.snap.CountRepairs(Global, "R"); err != nil || n != int64(len(p.repairs)) || len(reps) != len(p.repairs) {
			return fmt.Errorf("pinned snapshot counts %d repairs (%v) and lists %d, a rebuild has %d", n, err, len(reps), len(p.repairs))
		}
		for i, rp := range reps {
			if rp.String() != p.repairs[i] {
				return fmt.Errorf("pinned snapshot: repair %d = %s, a rebuild has %s", i, rp, p.repairs[i])
			}
		}
		for k, want := range p.verdict {
			if a, err := p.snap.Query(Global, fmt.Sprintf("R(%d, 0)", k)); err != nil || a != want {
				return fmt.Errorf("pinned snapshot: R(%d, 0) = %v, %v; a rebuild says %v", k, a, err, want)
			}
		}
		return nil
	}

	u := newUpdateCycle(t, clusters)
	feed := make(chan *pin)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pins []*pin
			// Every new pin is checked at once and an old one again with
			// it, and all of them once more when the writer is done. A
			// reader that has failed keeps draining the feed.
			checkAll := func(ps ...*pin) {
				for _, p := range ps {
					if !t.Failed() {
						if err := check(p); err != nil {
							t.Error(err)
						}
					}
				}
			}
			for p := range feed {
				pins = append(pins, p)
				checkAll(p, pins[len(pins)/2])
			}
			checkAll(pins...)
		}()
	}
	eras := map[uint64]bool{}
	for i := 0; i < iterations && !t.Failed(); i++ {
		u.step(t, nil)
		if i%5 == 0 {
			snap, err := u.db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			eras[builtOf(snap, "R").Pri.Graph().Era()] = true
			feed <- &pin{snap: snap, prefs: u.prefs[:len(u.prefs):len(u.prefs)]}
		}
	}
	close(feed)
	wg.Wait()
	if len(eras) < 3 {
		t.Fatalf("the pins span %d graph eras: the writer never compacted twice", len(eras))
	}
}
