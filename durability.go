package prefcqa

import (
	"fmt"

	"prefcqa/internal/relation"
	"prefcqa/internal/wal"
)

// SyncPolicy selects the durability barrier of a durable DB: how much
// must be on disk before a mutation call returns.
type SyncPolicy = wal.SyncPolicy

// The durability policies (see WithSyncPolicy).
const (
	// SyncAlways fsyncs before acknowledging every mutation. The fsync
	// runs without the log's lock, so writers that append while one is
	// in flight share the next (group commit). An acknowledged write
	// survives SIGKILL and power loss.
	SyncAlways = wal.SyncAlways
	// SyncGroup acknowledges once the record reaches the OS and fsyncs
	// on a bounded background interval: a power failure loses at most
	// the last interval, process death loses nothing.
	SyncGroup = wal.SyncGroup
	// SyncNever never fsyncs while serving (a clean Close still does).
	SyncNever = wal.SyncNever
)

// ParseSyncPolicy parses "always", "group" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// WithSyncPolicy sets the durability barrier of a DB opened with Open
// (default SyncAlways). Ignored by New.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(db *DB) { db.walOpts.Policy = p }
}

// WithCheckpointBytes sets the log growth after which a mutation
// triggers an automatic compacting checkpoint (default 8 MiB;
// negative disables automatic checkpoints). Ignored by New.
func WithCheckpointBytes(n int64) Option {
	return func(db *DB) { db.walOpts.CheckpointBytes = n }
}

// Open opens a durable database rooted at dir, creating the directory
// on first use. Every mutation is written ahead to an append-only,
// CRC-framed log and acknowledged under the configured SyncPolicy;
// periodic checkpoints compact the log. Reopening the directory
// recovers the database: the newest checkpoint is loaded, the log
// tail is replayed (a torn final record — a crash mid-append — is
// truncated; any other corruption is a loud error), and the recovered
// write-version is republished so version-pinned reads survive the
// restart.
//
// A recovered database is bit-for-bit equivalent to the acknowledged
// history: same tuple IDs, same instance versions, same preferences,
// same answers under every repair family.
func Open(dir string, opts ...Option) (*DB, error) {
	db := New(opts...)
	log, ckpt, tail, err := wal.Open(dir, db.walOpts)
	if err != nil {
		return nil, err
	}
	if ckpt != nil {
		if err := db.loadCheckpoint(ckpt); err != nil {
			log.Close()
			return nil, fmt.Errorf("prefcqa: recovering %s: checkpoint: %w", dir, err)
		}
	}
	for _, rec := range tail {
		if err := db.replayRecord(rec); err != nil {
			log.Close()
			return nil, fmt.Errorf("prefcqa: recovering %s: record %d: %w", dir, rec.Seq, err)
		}
	}
	db.log = log
	db.publishLocked(log.Seq())
	return db, nil
}

// Durable reports whether the database is backed by a write-ahead log
// (created with Open rather than New).
func (db *DB) Durable() bool { return db.log != nil }

// WriteVersion returns the write-version of the database's current
// version: a monotone counter bumped exactly once per applied mutation
// batch, when the batch is published. On a durable DB it is the
// sequence of the batch's log record, so it survives restart — a
// reader holding a version from before a crash can still demand
// at-least-that-new data after recovery.
func (db *DB) WriteVersion() uint64 { return db.cur.Load().wv }

// Close flushes and closes the write-ahead log after waiting for a
// checkpoint in progress and for in-flight mutations to finish. Reads
// remain possible; further mutations fail. On a non-durable DB it is a
// no-op.
func (db *DB) Close() error {
	if db.log == nil {
		return nil
	}
	db.ckptBusy.Lock()
	defer db.ckptBusy.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.log.Close()
}

// Checkpoint writes a compacted snapshot of the whole database to the
// log directory and truncates the log, and returns once the snapshot
// is durable; recovery afterwards loads it instead of replaying
// history. It waits for a checkpoint already in progress, then cuts
// its own (see checkpoint): the writer mutex is held only to pin the
// current version, so writers wait for that, not for the disk, and
// readers never wait. Mutations trigger checkpoints automatically, in
// the background, once the log outgrows WithCheckpointBytes; call
// Checkpoint directly to force one (e.g. before a backup).
func (db *DB) Checkpoint() error {
	if db.log == nil {
		return fmt.Errorf("prefcqa: Checkpoint on a non-durable database")
	}
	db.ckptBusy.Lock()
	defer db.ckptBusy.Unlock()
	return db.checkpoint()
}

// checkpoint cuts one consistent checkpoint and writes it. Under the
// writer mutex it pins the current version (O(relations), plus a copy
// of each preference history) and has the log rotate to a fresh
// segment at the cut; then, with no lock held, the log encodes the
// pinned versions straight into the checkpoint file, fsyncs it and
// installs it. Caller holds ckptBusy, so one checkpoint runs at a time.
func (db *DB) checkpoint() error {
	db.mu.Lock()
	install, err := db.log.Cut(db.pinCheckpointLocked())
	db.mu.Unlock()
	if err != nil || install == nil {
		return err
	}
	return install()
}

// encodeUniverse renders every tuple of the instance in ID order,
// tombstoned ones included, plus the tombstoned IDs — what a creation
// record stores (a checkpoint stores the same, written by the log's
// encoder from the instance itself): the TupleID universe must survive
// bit-for-bit, because later records and recorded preferences address
// tuples by ID. replayCreate is the inverse.
func encodeUniverse(inst *relation.Instance) (rows [][]string, dead []int) {
	rows = make([][]string, inst.NumIDs())
	for id := range rows {
		rows[id] = relation.EncodeRow(inst.Tuple(id))
		if !inst.Live(id) {
			dead = append(dead, id)
		}
	}
	return rows, dead
}

// logAppend assigns the mutation its write-version: on a durable DB
// it appends the record (built lazily — mk runs only when a log is
// attached) and returns its sequence; in memory it is the next
// version's number. Callers hold the writer mutex and publish the
// version at this write-version, so log order is publication order.
// Call commit with the returned sequence after releasing the mutex.
func (db *DB) logAppend(mk func() wal.Record) (uint64, error) {
	if db.log == nil {
		return db.cur.Load().wv + 1, nil
	}
	return db.log.Append(mk())
}

// commit applies the durability barrier for a mutation logged at seq
// (0 = nothing was logged) and, when the log has outgrown its
// checkpoint threshold and no checkpoint is in progress, starts one on
// a background goroutine. Must be called after the mutation's writer
// mutex is released: the barrier may block on an fsync and the
// checkpoint's cut needs the mutex.
func (db *DB) commit(seq uint64) error {
	if db.log == nil || seq == 0 {
		return nil
	}
	if err := db.log.Sync(seq); err != nil {
		return err
	}
	if db.log.NeedCheckpoint() && db.ckptBusy.TryLock() {
		go func() {
			// The goroutine's last action: Close, taking ckptBusy,
			// waits for the whole checkpoint.
			defer db.ckptBusy.Unlock()
			// Best effort: a failed automatic checkpoint surfaces on the
			// next mutation through the log's sticky error.
			db.checkpoint() //nolint:errcheck
		}()
	}
	return nil
}

// --- recovery ---------------------------------------------------------

// loadCheckpoint rebuilds every relation from a checkpoint. Strict:
// any mismatch between the declared and reproduced state (a row that
// replays to the wrong ID, an unknown kind, an undeclared dead ID) is
// a loud error — a checkpoint that cannot be reproduced exactly must
// never be served.
func (db *DB) loadCheckpoint(c *wal.Checkpoint) error {
	for _, cr := range c.Relations {
		r, err := db.replayCreate(cr.Name, cr.Attrs, cr.Rows, cr.Dead)
		if err != nil {
			return fmt.Errorf("relation %s: %w", cr.Name, err)
		}
		for _, spec := range cr.FDs {
			if err := r.replayFD(spec); err != nil {
				return fmt.Errorf("relation %s: %w", cr.Name, err)
			}
		}
		// Checkpoint preferences are the recorded history: pairs may
		// reference tombstoned tuples (they are pruned lazily), so
		// liveness is not required — only freshness.
		if err := r.replayPrefs(cr.Prefs, false); err != nil {
			return fmt.Errorf("relation %s: %w", cr.Name, err)
		}
	}
	return nil
}

// applyRecord replays one log record and publishes the version it
// makes, at the record's sequence: a follower's replicated record,
// which readers see as it applies. Caller holds db.mu.
func (db *DB) applyRecord(rec wal.Record) error {
	if err := db.replayRecord(rec); err != nil {
		return err
	}
	db.publishLocked(rec.Seq)
	return nil
}

// replayRecord replays one log record into the writer's state without
// publishing it: Open publishes once, after the whole tail. Strict
// where the public API is lenient: the log only holds records for
// mutations that actually applied, so a duplicate insert, a dead
// delete or a duplicate preference during replay means the log does
// not match the state it claims to rebuild — fail loudly rather than
// serve silently wrong answers. Caller holds db.mu (or owns db, while
// Open loads it).
func (db *DB) replayRecord(rec wal.Record) error {
	var err error
	switch rec.Op {
	case wal.OpCreate:
		_, err = db.replayCreate(rec.Rel, rec.Attrs, rec.Rows, rec.IDs)
	case wal.OpFD, wal.OpInsert, wal.OpDelete, wal.OpPrefer:
		var r *Relation
		if r, err = db.replayRel(rec.Rel); err != nil {
			break
		}
		switch rec.Op {
		case wal.OpFD:
			err = r.replayFD(rec.FD)
		case wal.OpInsert:
			err = r.replayInserts(rec.Rows)
		case wal.OpDelete:
			err = r.replayDeletes(rec.IDs)
		default:
			err = r.replayPrefs(rec.Pairs, true)
		}
	default:
		err = fmt.Errorf("unknown op %q", rec.Op)
	}
	return err
}

func (db *DB) replayRel(name string) (*Relation, error) {
	i, ok := db.cat.index[name]
	if !ok {
		return nil, fmt.Errorf("unknown relation %q", name)
	}
	return db.cat.rels[i], nil
}

// replayCreate registers a relation and reloads its tuple universe:
// every row is inserted in ID order, with tombstoned IDs deleted
// immediately after insertion so set-semantics deduplication — which
// only considers live tuples — reproduces the exact original IDs.
func (db *DB) replayCreate(name string, wattrs []relation.WireAttr, rows [][]string, dead []int) (*Relation, error) {
	schema, err := relation.WireSchema(name, wattrs)
	if err != nil {
		return nil, err
	}
	deadSet := make(map[int]bool, len(dead))
	for _, id := range dead {
		if id < 0 || id >= len(rows) || deadSet[id] {
			return nil, fmt.Errorf("dead ID %d out of range or duplicated", id)
		}
		deadSet[id] = true
	}
	tuples, err := relation.DecodeRows(schema, rows)
	if err != nil {
		return nil, err
	}
	inst := relation.NewInstance(schema)
	for i, tup := range tuples {
		id, fresh, err := inst.Insert(tup)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		if !fresh || id != i {
			return nil, fmt.Errorf("row %d replayed to ID %d (fresh=%v): duplicate row", i, id, fresh)
		}
		if deadSet[i] {
			inst.Delete(i)
		}
	}
	r, err := db.freshRelation(inst)
	if err != nil {
		return nil, err
	}
	db.register(r)
	return r, nil
}

// replayInserts, replayDeletes, replayFD and replayPrefs stage a
// record's change and apply it; the strictness a replay needs is that
// of the staging. Callers hold db.mu (or own db, while Open loads it).
func (r *Relation) replayInserts(rows [][]string) error {
	tuples, err := relation.DecodeRows(r.schema, rows)
	if err != nil {
		return err
	}
	c, err := r.inserting(tuples)
	if err != nil {
		return err
	}
	return r.apply(c)
}

func (r *Relation) replayDeletes(ids []int) error {
	c, err := r.deleting(ids)
	if err != nil {
		return err
	}
	return r.apply(c)
}

func (r *Relation) replayFD(spec string) error {
	c, _, err := r.addingFD(spec)
	if err != nil {
		return err
	}
	return r.apply(c)
}

func (r *Relation) replayPrefs(pairs [][2]TupleID, requireLive bool) error {
	inst := r.head.Inst
	for _, p := range pairs {
		if requireLive && (!inst.Live(p[0]) || !inst.Live(p[1])) {
			return fmt.Errorf("preference (%d, %d) on non-live tuples", p[0], p[1])
		}
		if r.preferred(p) {
			return fmt.Errorf("duplicate preference (%d, %d)", p[0], p[1])
		}
		r.prefSeen[keyOf(p)] = struct{}{} // catches a repeat within the record; install records it anyway
	}
	return r.apply(change{inst: inst, fds: r.head.FDs, prefs: pairs})
}
