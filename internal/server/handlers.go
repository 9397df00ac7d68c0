package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"prefcqa"
	"prefcqa/client"
	"prefcqa/internal/relation"
)

// routes wires every endpoint of the v1 protocol.
func (s *Server) routes() {
	s.mux.Handle(client.PathCreateDB, s.endpoint(http.MethodPost, s.writeGate(s.handleCreateDB)))
	s.mux.Handle(client.PathRelation, s.endpoint(http.MethodPost, s.writeGate(s.handleRelation)))
	s.mux.Handle(client.PathFD, s.endpoint(http.MethodPost, s.writeGate(s.handleFD)))
	s.mux.Handle(client.PathInsert, s.endpoint(http.MethodPost, s.writeGate(s.handleInsert)))
	s.mux.Handle(client.PathDelete, s.endpoint(http.MethodPost, s.writeGate(s.handleDelete)))
	s.mux.Handle(client.PathPrefer, s.endpoint(http.MethodPost, s.writeGate(s.handlePrefer)))
	s.mux.Handle(client.PathQuery, s.endpoint(http.MethodPost, s.handleQuery))
	s.mux.Handle(client.PathQueryOpen, s.endpoint(http.MethodPost, s.handleQueryOpen))
	s.mux.Handle(client.PathCount, s.endpoint(http.MethodPost, s.handleCount))
	s.mux.Handle(client.PathRepairs, s.endpoint(http.MethodPost, s.handleRepairs))
	s.mux.Handle(client.PathExplain, s.endpoint(http.MethodPost, s.handleExplain))
	s.mux.Handle(client.PathStats, s.endpoint(http.MethodGet, s.handleStats))
	s.mux.Handle(client.PathReplSnapshot, s.endpoint(http.MethodGet, s.handleReplSnapshot))
	s.mux.Handle(client.PathReplDBs, s.endpoint(http.MethodGet, s.handleReplDBs))
	s.mux.Handle(client.PathPromote, s.endpoint(http.MethodPost, s.handlePromote))
	// The stream bypasses admission control: a parked follower holding
	// a long-poll window is not load, and counting it against the
	// in-flight budget would let a handful of replicas starve reads.
	s.mux.HandleFunc(client.PathReplStream, s.handleReplStream)
	s.mux.HandleFunc(client.PathHealth, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n")) //nolint:errcheck // health probe
	})
}

// writeGate refuses every mutation while the server is a follower —
// before the handler touches any state, so even would-be no-ops (a
// replay of a preference the replica already carries) get the 421
// redirect instead of a misleading success from a replica.
func (s *Server) writeGate(h handlerFunc) handlerFunc {
	return func(w http.ResponseWriter, r *http.Request) error {
		if s.isFollower() {
			return prefcqa.ErrReadOnly
		}
		return h(w, r)
	}
}

func (s *Server) handleCreateDB(w http.ResponseWriter, r *http.Request) error {
	var req client.CreateDBRequest
	if err := s.decode(r, &req); err != nil {
		return err
	}
	db, err := s.CreateDB(req.DB)
	if err != nil {
		return &httpError{code: http.StatusConflict, err: err}
	}
	// A fresh database reports version 0; a durable one whose
	// directory carried prior state reports the recovered version.
	return writeReply(w, client.VersionResponse{Version: db.WriteVersion()})
}

func (s *Server) handleRelation(w http.ResponseWriter, r *http.Request) error {
	var req client.RelationRequest
	if err := s.decode(r, &req); err != nil {
		return err
	}
	t, err := s.tenant(req.DB)
	if err != nil {
		return err
	}
	// A malformed schema is the request's fault (400); 409 is left to
	// mean that the relation exists already.
	schema, err := relation.WireSchema(req.Relation, req.Attrs)
	if err != nil {
		return err
	}
	// Schema changes take the tenant write lock: prefcqa.DB does not
	// synchronize relation creation with concurrent use.
	t.mu.Lock()
	_, err = t.db.AddInstance(relation.NewInstance(schema))
	t.mu.Unlock()
	if err != nil {
		return &httpError{code: http.StatusConflict, err: err}
	}
	return writeReply(w, client.VersionResponse{Version: t.version()})
}

// withRelation resolves a tenant and relation and runs fn holding the
// tenant read lock (guarding against concurrent relation creation;
// tuple-level mutation is synchronized by the facade itself).
func (s *Server) withRelation(db, rel string, fn func(t *tenant, r *prefcqa.Relation) error) (*tenant, error) {
	t, err := s.tenant(db)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.db.Relation(rel)
	if !ok {
		return nil, &httpError{code: http.StatusNotFound, err: fmt.Errorf("unknown relation %q in database %q", rel, db)}
	}
	return t, fn(t, r)
}

func (s *Server) handleFD(w http.ResponseWriter, r *http.Request) error {
	var req client.FDRequest
	if err := s.decode(r, &req); err != nil {
		return err
	}
	t, err := s.withRelation(req.DB, req.Relation, func(t *tenant, rel *prefcqa.Relation) error {
		return rel.AddFD(req.FD)
	})
	if err != nil {
		return err
	}
	return writeReply(w, client.VersionResponse{Version: t.version()})
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) error {
	var req client.InsertRequest
	if err := s.decode(r, &req); err != nil {
		return err
	}
	var ids []int
	t, err := s.withRelation(req.DB, req.Relation, func(t *tenant, rel *prefcqa.Relation) error {
		// Decode every row before inserting any, so a malformed batch is
		// rejected whole: no partial, unversioned mutation can hide
		// behind the cached snapshot and surface as a phantom after an
		// unrelated later write.
		tuples, err := relation.DecodeRows(rel.Schema(), req.Rows)
		if err != nil {
			return err
		}
		// One batch call: one lock acquisition, one log record, one
		// durability barrier — a bulk load costs one fsync, not one
		// per row.
		ids, err = rel.InsertRows(tuples)
		return err
	})
	if err != nil {
		return err
	}
	return writeReply(w, client.InsertResponse{IDs: ids, Version: t.version()})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	var req client.DeleteRequest
	if err := s.decode(r, &req); err != nil {
		return err
	}
	deleted := 0
	t, err := s.withRelation(req.DB, req.Relation, func(t *tenant, rel *prefcqa.Relation) error {
		// One batch call, like handleInsert's: the live IDs of the request
		// are one log record, one durability barrier and one write-version
		// step.
		var err error
		deleted, err = rel.DeleteIDs(req.IDs)
		return err
	})
	if err != nil {
		return err
	}
	return writeReply(w, client.DeleteResponse{Deleted: deleted, Version: t.version()})
}

func (s *Server) handlePrefer(w http.ResponseWriter, r *http.Request) error {
	var req client.PreferRequest
	if err := s.decode(r, &req); err != nil {
		return err
	}
	t, err := s.withRelation(req.DB, req.Relation, func(t *tenant, rel *prefcqa.Relation) error {
		// One batch call, like handleInsert's: every pair is validated
		// under the relation lock before any is logged or applied, so a
		// request naming a dead tuple ID is rejected whole, and an
		// accepted one is one log record, one durability barrier and one
		// write-version step.
		return rel.PreferPairs(req.Pairs)
	})
	if err != nil {
		return err
	}
	return writeReply(w, client.VersionResponse{Version: t.version()})
}

// pinned resolves a tenant and a snapshot satisfying the read
// options. On a follower, a min_version ahead of the replicated
// watermark waits (bounded by ctx) for replication to catch up —
// read-your-writes holds through any replica.
func (s *Server) pinned(ctx context.Context, db string, opts client.ReadOptions) (*pinnedSnap, error) {
	t, err := s.tenant(db)
	if err != nil && opts.MinVersion > 0 && s.isFollower() {
		// min_version asserts the database exists; on a follower the
		// 404 may just be a discovery race, so wait it out.
		t, err = s.waitTenant(ctx, db)
	}
	if err != nil {
		return nil, err
	}
	if err := s.waitMin(ctx, t, opts.MinVersion); err != nil {
		return nil, err
	}
	return t.snapshotAtLeast(opts.MinVersion)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	var req client.QueryRequest
	if err := s.decode(r, &req); err != nil {
		return err
	}
	fam, err := prefcqa.ParseFamily(req.Family)
	if err != nil {
		return err
	}
	ctx, cancel := s.readCtx(r, req.ReadOptions)
	defer cancel()
	p, err := s.pinned(ctx, req.DB, req.ReadOptions)
	if err != nil {
		return err
	}
	ans, err := p.snap.QueryContext(ctx, fam, req.Query)
	if err != nil {
		return err
	}
	return writeReply(w, client.QueryResponse{Answer: ans.String(), Version: p.wv, Versions: p.versions})
}

func (s *Server) handleQueryOpen(w http.ResponseWriter, r *http.Request) error {
	var req client.QueryRequest
	if err := s.decode(r, &req); err != nil {
		return err
	}
	fam, err := prefcqa.ParseFamily(req.Family)
	if err != nil {
		return err
	}
	ctx, cancel := s.readCtx(r, req.ReadOptions)
	defer cancel()
	p, err := s.pinned(ctx, req.DB, req.ReadOptions)
	if err != nil {
		return err
	}
	bindings, err := p.snap.QueryOpenContext(ctx, fam, req.Query)
	if err != nil {
		return err
	}
	resp := client.QueryOpenResponse{Bindings: make([]map[string]string, 0, len(bindings)), Version: p.wv}
	for _, b := range bindings {
		m := make(map[string]string, len(b))
		for name, v := range b {
			m[name] = prefcqa.EncodeValue(v)
		}
		resp.Bindings = append(resp.Bindings, m)
	}
	return writeReply(w, resp)
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) error {
	var req client.CountRequest
	if err := s.decode(r, &req); err != nil {
		return err
	}
	fam, err := prefcqa.ParseFamily(req.Family)
	if err != nil {
		return err
	}
	ctx, cancel := s.readCtx(r, req.ReadOptions)
	defer cancel()
	p, err := s.pinned(ctx, req.DB, req.ReadOptions)
	if err != nil {
		return err
	}
	n, err := p.snap.CountRepairsContext(ctx, fam, req.Relation)
	if err != nil {
		if _, ok := p.snap.Instance(req.Relation); !ok {
			return &httpError{code: http.StatusNotFound, err: err}
		}
		return err
	}
	return writeReply(w, client.CountResponse{Count: n, Version: p.wv})
}

// handleRepairs streams the preferred repairs as NDJSON: one
// client.RepairsLine per repair, flushed as produced, then a terminal
// Done (or Error) line. Errors after the first line cannot change the
// status code; the terminal line carries them instead.
func (s *Server) handleRepairs(w http.ResponseWriter, r *http.Request) error {
	var req client.RepairsRequest
	if err := s.decode(r, &req); err != nil {
		return err
	}
	fam, err := prefcqa.ParseFamily(req.Family)
	if err != nil {
		return err
	}
	ctx, cancel := s.readCtx(r, req.ReadOptions)
	defer cancel()
	p, err := s.pinned(ctx, req.DB, req.ReadOptions)
	if err != nil {
		return err
	}
	snap := p.snap
	if _, ok := snap.Instance(req.Relation); !ok {
		return &httpError{code: http.StatusNotFound, err: fmt.Errorf("unknown relation %q in database %q", req.Relation, req.DB)}
	}
	max := req.Max
	if max <= 0 {
		max = s.opts.MaxRepairs
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(line client.RepairsLine) bool {
		if err := enc.Encode(line); err != nil {
			return false // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	count, truncated := 0, false
	err = snap.EnumerateRepairs(ctx, fam, req.Relation, func(inst *prefcqa.Instance) bool {
		// Truncated is only true when a repair beyond the cap exists:
		// an enumeration of exactly max repairs is complete, not cut.
		if count >= max {
			truncated = true
			return false
		}
		wi := prefcqa.EncodeWire(inst)
		if !emit(client.RepairsLine{Repair: &wi}) {
			return false
		}
		count++
		return true
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.timeouts.Add(1)
		}
		emit(client.RepairsLine{Error: err.Error()})
		return nil // status already sent; the error travelled in-band
	}
	emit(client.RepairsLine{Done: true, Count: count, Truncated: truncated})
	return nil
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) error {
	var req client.ExplainRequest
	if err := s.decode(r, &req); err != nil {
		return err
	}
	ctx, cancel := s.readCtx(r, req.ReadOptions)
	defer cancel()
	p, err := s.pinned(ctx, req.DB, req.ReadOptions)
	if err != nil {
		return err
	}
	rep, err := p.snap.ExplainPlanContext(ctx, req.Query)
	if err != nil {
		return err
	}
	return writeJSON(w, client.ExplainResponse{
		Query: rep.Query, Holds: rep.Holds, Plans: rep.Plans, Version: p.wv,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	s.mu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	resp := client.StatsResponse{DBs: make(map[string]client.DBStats, len(tenants)), Server: s.Stats()}
	for _, t := range tenants {
		hits, misses := t.db.EngineStats()
		qs := t.db.QueryStats()
		ds := client.DBStats{
			WriteVersion:     t.version(),
			CacheHits:        hits,
			CacheMisses:      misses,
			OpenDirect:       qs.OpenDirect,
			OpenFallback:     qs.OpenFallback,
			WcojSpines:       qs.SpineWcoj,
			YanSpines:        qs.SpineYannakakis,
			GreedySpines:     qs.SpineGreedy,
			ClosedPruned:     qs.ClosedPruned,
			ClosedFull:       qs.ClosedFull,
			ClosedBounded:    qs.ClosedBounded,
			QueryCacheHits:   qs.QueryCacheHits,
			QueryCacheMisses: qs.QueryCacheMisses,
			Relations:        map[string]client.RelationStats{},
		}
		if ws, durable := t.db.WALStats(); durable {
			ds.WAL = &client.WALStats{
				Seq:           ws.Seq,
				CheckpointSeq: ws.CheckpointSeq,
				Epoch:         ws.Epoch,
				Segments:      ws.Segments,
				SegmentBytes:  ws.SegmentBytes,
				Fsync:         ws.Policy.String(),
			}
		}
		ds.Replication = s.replicationStats(t)
		// Relation detail comes from the already-cached snapshot only:
		// stats is an observability endpoint and must never trigger a
		// fresh materialization (a monitoring poll against a
		// write-active database would otherwise force the heaviest
		// computation in the server on every scrape). A database with
		// no cached snapshot yet — or whose build currently fails —
		// reports its write-version without detail.
		if p := t.snap.Load(); p != nil {
			snap := p.snap
			for name, ver := range p.versions {
				inst, _ := snap.Instance(name)
				conflicts, _ := snap.Conflicts(name)
				components, _ := snap.Components(name)
				ds.Relations[name] = client.RelationStats{
					Version:    ver,
					Tuples:     inst.Len(),
					Conflicts:  conflicts,
					Components: components,
				}
			}
		}
		resp.DBs[t.name] = ds
	}
	return writeJSON(w, resp)
}
