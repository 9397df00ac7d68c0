package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"prefcqa"
	"prefcqa/client"
	"prefcqa/internal/relation"
	"prefcqa/internal/replication"
	"prefcqa/internal/wal"
)

// This file is the server's replication surface: the primary side
// (checkpoint snapshot + long-polled WAL stream + database discovery),
// the follower side (the replication.Manager host plus min_version
// watermark waits) and promotion.

// StartReplication launches the follower role when Options.FollowURL
// is set: a replication.Manager that discovers the primary's databases
// and tails each one's log into a local read-only replica. Call after
// RecoverDBs and before the listener opens; a no-op on a primary.
func (s *Server) StartReplication() error {
	if s.opts.FollowURL == "" {
		return nil
	}
	m := replication.NewManager(s, replication.Options{
		Primary:          s.opts.FollowURL,
		AutoPromote:      s.opts.AutoPromote,
		DiscoverInterval: s.opts.DiscoverInterval,
	})
	s.repl = m
	m.Start()
	return nil
}

// isFollower reports whether writes must be redirected to a primary.
func (s *Server) isFollower() bool {
	return s.repl != nil && !s.repl.Promoted()
}

// Replica implements replication.Host: it returns (creating if
// needed) the local read-only database replicating name, plus the
// tenant lock the follower takes around its applies. The facade
// synchronizes those with readers itself; the lock is kept because
// the benchmark's trace mode takes three results.
func (s *Server) Replica(name string) (*prefcqa.DB, *sync.RWMutex, error) {
	if err := validateDBName(name); err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		t.db.SetReadOnly(true)
		return t.db, &t.mu, nil
	}
	db, err := s.openDB(name)
	if err != nil {
		return nil, nil, err
	}
	db.SetReadOnly(true)
	t := &tenant{name: name, db: db}
	s.tenants[name] = t
	return t.db, &t.mu, nil
}

// Promote turns this follower into a primary: replication stops and
// every replicated database reopens for writes at the exact sequence
// where the stream stopped, under a bumped fencing epoch.
func (s *Server) Promote() (client.PromoteResponse, error) {
	if s.repl == nil {
		return client.PromoteResponse{}, &httpError{
			code: http.StatusConflict,
			err:  errors.New("not a follower (no -follow primary configured)"),
		}
	}
	return s.repl.Promote()
}

// pollFollower re-tests ready every 25ms for as long as the discovery
// loop of this running follower may still make it true: until two
// rounds have completed since the call, the second of which began after
// it (replication.Manager.Rounds) — no new duration to configure, and a
// primary that cannot be reached bounds nothing. It reports whether
// ready held; ctx ending is an error (→ 504).
func (s *Server) pollFollower(ctx context.Context, ready func() bool) (bool, error) {
	if ready() {
		return true, nil
	}
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for settled := s.repl.Rounds() + 2; s.isFollower() && s.repl.Rounds() < settled; {
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-s.stop:
			return false, nil
		case <-tick.C:
		}
		if ready() {
			return true, nil
		}
	}
	return ready(), nil // a round attaches before it counts itself
}

// waitTenant parks a follower read addressed to a database that has
// not been discovered from the primary yet: a min_version read
// asserts the database exists, so the 404 would be a lie about a
// discovery race. Bounded by ctx (→ 504) and by pollFollower: a
// database the primary does not list is a 404 after all.
func (s *Server) waitTenant(ctx context.Context, name string) (*tenant, error) {
	if _, err := s.pollFollower(ctx, func() bool { _, err := s.tenant(name); return err == nil }); err != nil {
		return nil, err
	}
	return s.tenant(name)
}

// waitMin parks a read whose min_version is ahead of the database
// until the replicated watermark catches up (bounded by the request
// deadline → 504). A database the discovery loop has registered (or
// recovery reopened) but not attached a follower to yet is the same
// discovery race waitTenant covers, and is waited out the same way.
// On a non-follower, on a follower that stopped replicating while
// still behind and for a database the primary does not list — no
// follower will ever attach — an unsatisfiable min falls through to
// snapshotAtLeast's 412.
func (s *Server) waitMin(ctx context.Context, t *tenant, min uint64) error {
	if min <= t.version() || s.repl == nil {
		return nil // a min still ahead gets snapshotAtLeast's 412
	}
	attached, err := s.pollFollower(ctx, func() bool { return s.repl.Follower(t.name) != nil })
	if !attached {
		return err
	}
	if err := s.repl.Follower(t.name).WaitVersion(ctx, min); !errors.Is(err, replication.ErrStopped) {
		return err // nil, or the context deadline → 504
	}
	return nil // fall through: 412 if the local version still lags
}

func (s *Server) handleReplDBs(w http.ResponseWriter, r *http.Request) error {
	s.mu.RLock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return writeJSON(w, client.ReplDBsResponse{DBs: names})
}

// handleReplSnapshot serves the bootstrap image: a checkpoint of the
// whole database at its current write-version, pinned without touching
// the primary's own log and streamed into the ReplSnapshotResponse
// envelope, its payload written by the log's checkpoint encoder.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) error {
	t, err := s.tenant(r.URL.Query().Get("db"))
	if err != nil {
		return err
	}
	if !t.db.Durable() {
		return &httpError{
			code: http.StatusConflict,
			err:  fmt.Errorf("database %q is not durable; replication requires a write-ahead log", t.name),
		}
	}
	ckpt := t.db.PinCheckpoint()
	head := relation.AppendJSONString([]byte(`{"db":`), t.name)
	head = strconv.AppendUint(append(head, `,"seq":`...), ckpt.Seq, 10)
	head = strconv.AppendUint(append(head, `,"epoch":`...), ckpt.Epoch, 10)
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(head, `,"checkpoint":`...)); err != nil {
		return err
	}
	if err := wal.WritePayload(w, ckpt); err != nil {
		return err
	}
	_, err = io.WriteString(w, "}\n")
	return err
}

// handleReplStream serves one long-polled stream window as NDJSON:
// every log record from from_seq onward as it appears, heartbeats
// while idle, then a clean close so the follower reconnects. It is
// registered outside the admission semaphore — a parked follower is
// not load, and a slot held for the whole window would starve real
// requests.
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	q := r.URL.Query()
	t, err := s.tenant(q.Get("db"))
	if err != nil {
		s.writeHandlerError(w, err)
		return
	}
	if !t.db.Durable() {
		writeError(w, http.StatusConflict, fmt.Errorf("database %q is not durable; replication requires a write-ahead log", t.name))
		return
	}
	from, _ := strconv.ParseUint(q.Get("from_seq"), 10, 64)
	if from == 0 {
		from = t.version() + 1
	}
	if peer, _ := strconv.ParseUint(q.Get("epoch"), 10, 64); peer > t.db.Epoch() {
		// The follower's lineage is newer than ours: we are the stale
		// primary. Refuse rather than feed it pre-failover history.
		writeError(w, http.StatusConflict, fmt.Errorf("follower epoch %d is ahead of primary epoch %d (fenced)", peer, t.db.Epoch()))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(f client.ReplFrame) bool {
		if err := enc.Encode(f); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	// position stamps a heartbeat or error frame with the log's head,
	// epoch and checkpoint horizon.
	position := func(f client.ReplFrame) client.ReplFrame {
		f.Seq, f.CheckpointSeq, f.Epoch = t.db.WALPosition()
		return f
	}
	heartbeat := func() bool { return emit(position(client.ReplFrame{Heartbeat: true})) }
	if !heartbeat() { // first write commits the 200 and proves liveness
		return
	}

	window := time.NewTimer(s.opts.StreamWindow)
	defer window.Stop()
	pulse := time.NewTicker(s.opts.HeartbeatInterval)
	defer pulse.Stop()
	for {
		recs, err := t.db.ReplReadFrom(from, 256)
		if err != nil {
			if errors.Is(err, wal.ErrCompacted) {
				emit(position(client.ReplFrame{Error: "compacted"}))
			} else {
				emit(client.ReplFrame{Error: err.Error()})
			}
			return
		}
		for _, rec := range recs {
			raw, err := json.Marshal(rec)
			if err != nil {
				emit(client.ReplFrame{Error: err.Error()})
				return
			}
			if !emit(client.ReplFrame{Record: raw}) {
				return
			}
			from = rec.Seq + 1
		}
		select {
		case <-window.C:
			heartbeat() // a fresh position right before the clean close
			return
		case <-s.stop:
			return
		case <-r.Context().Done():
			return
		default:
		}
		if len(recs) > 0 {
			continue
		}
		// Idle: long-poll for the next append, waking periodically to
		// heartbeat and to notice the window's end, server shutdown, or
		// the client going away.
		waitCtx, cancel := context.WithTimeout(r.Context(), s.opts.HeartbeatInterval)
		err = t.db.ReplWaitAppend(waitCtx, from-1)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			if r.Context().Err() != nil {
				return // client gone
			}
			emit(client.ReplFrame{Error: err.Error()})
			return
		}
		select {
		case <-pulse.C:
			if !heartbeat() {
				return
			}
		default:
		}
	}
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) error {
	resp, err := s.Promote()
	if err != nil {
		return err
	}
	return writeJSON(w, resp)
}

// replicationStats reports the database's replication role for
// /v1/stats: the follower's live status when one exists, a plain
// primary row otherwise.
func (s *Server) replicationStats(t *tenant) *client.ReplicationStats {
	if s.repl != nil {
		if f := s.repl.Follower(t.name); f != nil {
			return f.Stats()
		}
	}
	return &client.ReplicationStats{
		Role:          "primary",
		AppliedSeq:    t.version(),
		Epoch:         t.db.Epoch(),
		Status:        "serving",
		LastContactMS: -1,
	}
}
