package prefcqa

import (
	"context"
	"errors"
	"fmt"

	"prefcqa/internal/wal"
)

// ErrReadOnly is returned by every public mutation on a database that
// serves as a replication follower (SetReadOnly). Writes belong on the
// primary until the follower is promoted.
var ErrReadOnly = errors.New("prefcqa: database is a read-only replica")

// ReadOnly reports whether public mutations are refused (the database
// is a replication follower).
func (db *DB) ReadOnly() bool { return db.readOnly.Load() }

// SetReadOnly marks the database as a replication follower: public
// mutations fail with ErrReadOnly while ReplApply keeps feeding the
// replicated history in. Promote clears the mark and fences the old
// primary by bumping the epoch.
func (db *DB) SetReadOnly(on bool) { db.readOnly.Store(on) }

// Epoch returns the database's replication epoch (≥ 1). Epochs advance
// only on Promote; every replica refuses records from an older epoch,
// so a resurrected pre-failover primary cannot feed stale history to
// the promoted lineage.
func (db *DB) Epoch() uint64 {
	if db.log != nil {
		return db.log.Epoch()
	}
	return db.epoch.Load()
}

// WALStats reports the write-ahead log's position, checkpoint
// coverage, epoch and on-disk footprint. ok is false on a non-durable
// database.
func (db *DB) WALStats() (wal.Stats, bool) {
	if db.log == nil {
		return wal.Stats{}, false
	}
	return db.log.Stats(), true
}

// WALPosition reports the log's head sequence, newest checkpoint
// sequence and epoch from memory alone — what a replication stream
// frame carries, without WALStats' directory walk. All zero on a
// non-durable database (see Durable).
func (db *DB) WALPosition() (seq, ckptSeq, epoch uint64) {
	if db.log == nil {
		return 0, 0, 0
	}
	return db.log.Position()
}

// CaptureCheckpoint builds a checkpoint image of the whole database at
// its current write-version without touching the log — the bootstrap
// image a replication primary serves to a new follower. It holds the
// writer mutex, so the image is one consistent cut and its Seq covers
// exactly the applied history.
func (db *DB) CaptureCheckpoint() (*wal.Checkpoint, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.captureCheckpointLocked(), nil
}

// captureCheckpointLocked captures every relation's writer-side state.
// Caller holds db.mu.
func (db *DB) captureCheckpointLocked() *wal.Checkpoint {
	c := &wal.Checkpoint{Seq: db.WriteVersion(), Epoch: db.Epoch()}
	for _, r := range db.cat.rels {
		c.Relations = append(c.Relations, checkpointRelation(r))
	}
	return c
}

// ReplBootstrap seeds an empty database from a primary's checkpoint
// image: the state is rebuilt through the same strict loader recovery
// uses, and on a durable database the image is installed into the
// local log so a restart recovers to the same position. The database
// must be empty — a follower that has diverged must be wiped and
// re-seeded, never merged.
func (db *DB) ReplBootstrap(c *wal.Checkpoint) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.cat.rels) != 0 || db.WriteVersion() != 0 {
		return fmt.Errorf("prefcqa: bootstrap requires an empty database (version %d, %d relations)", db.WriteVersion(), len(db.cat.rels))
	}
	epoch := c.Epoch
	if epoch == 0 {
		epoch = 1
	}
	if c.Seq == 0 {
		// An empty primary: nothing to load, just adopt the epoch.
		if db.log == nil && epoch > db.epoch.Load() {
			db.epoch.Store(epoch)
		}
		return nil
	}
	if db.log != nil {
		if err := db.log.InstallCheckpoint(c); err != nil {
			return err
		}
	}
	if err := db.loadCheckpoint(c); err != nil {
		return fmt.Errorf("prefcqa: bootstrap checkpoint at seq %d: %w", c.Seq, err)
	}
	if db.log == nil && epoch > db.epoch.Load() {
		db.epoch.Store(epoch)
	}
	db.publishLocked(c.Seq)
	return nil
}

// ReplApply applies one replicated record: the follower side of the
// stream. The record must carry exactly the next sequence and an epoch
// no older than the local one (fencing). On a durable database the
// record is appended to the local log first — logged history and
// applied state advance together, and a restart recovers to the same
// position. Replay is strict: a record that does not apply exactly as
// logged means the replica diverged, which is a loud error, never a
// silent skip.
//
// Concurrent readers are safe: an apply holds the writer mutex, stages
// on forks of the published versions exactly like a local mutation,
// and publishes the next version at the record's sequence.
func (db *DB) ReplApply(rec wal.Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if want := db.WriteVersion() + 1; rec.Seq != want {
		return fmt.Errorf("prefcqa: replicated record has seq %d, want %d", rec.Seq, want)
	}
	epoch := rec.Epoch
	if epoch == 0 {
		epoch = 1
	}
	if cur := db.Epoch(); epoch < cur {
		return fmt.Errorf("prefcqa: fenced: record epoch %d behind local epoch %d", epoch, cur)
	}
	if db.log != nil {
		if err := db.log.AppendExact(rec); err != nil {
			return err
		}
	}
	if err := db.applyRecord(rec); err != nil {
		return fmt.Errorf("prefcqa: replicated record %d does not replay: %w", rec.Seq, err)
	}
	if db.log == nil {
		db.epoch.Store(epoch)
	}
	return nil
}

// ReplCommit applies the durability barrier for replicated records up
// to seq and compacts the local log when it has outgrown its
// checkpoint threshold. The follower calls it once per applied batch
// rather than per record, so a fast stream costs one fsync per batch.
func (db *DB) ReplCommit(seq uint64) error { return db.commit(seq) }

// ReplReadFrom returns up to max log records starting at exactly
// fromSeq — the primary side of the stream. It returns
// wal.ErrCompacted when the position has been checkpointed away (the
// follower must re-bootstrap) and an empty slice when fromSeq is past
// the head.
func (db *DB) ReplReadFrom(fromSeq uint64, max int) ([]wal.Record, error) {
	if db.log == nil {
		return nil, fmt.Errorf("prefcqa: replication requires a durable database")
	}
	return db.log.ReadFrom(fromSeq, max)
}

// ReplWaitAppend blocks until the logged history extends past after or
// the context is done — the long-poll primitive behind the stream
// endpoint.
func (db *DB) ReplWaitAppend(ctx context.Context, after uint64) error {
	if db.log == nil {
		return fmt.Errorf("prefcqa: replication requires a durable database")
	}
	return db.log.WaitAppend(ctx, after)
}

// Promote turns a follower into a primary: public mutations are
// accepted again, continuing the sequence exactly where the replicated
// history ends, and the epoch advances so the old primary's lineage is
// fenced — a replica at the new epoch refuses its records. On a
// durable database the bump is made durable immediately (a
// checkpoint), so a restarted promoted follower cannot regress behind
// the fence. Promoting a non-follower just advances the epoch.
//
// Replication is asynchronous, so promotion can lose acknowledged
// writes: the primary acknowledges a write once it is in its own log,
// and a write it acknowledged but had not yet shipped when it failed
// is not in the history this follower continues. The window is the
// replication lag.
func (db *DB) Promote() (uint64, error) {
	db.mu.Lock()
	var epoch uint64
	if db.log != nil {
		epoch = db.log.Epoch() + 1
		if err := db.log.AdvanceEpoch(epoch); err != nil {
			db.mu.Unlock()
			return 0, err
		}
	} else {
		epoch = db.epoch.Add(1)
	}
	db.readOnly.Store(false)
	db.mu.Unlock()
	if db.log != nil && db.WriteVersion() > 0 {
		if err := db.Checkpoint(); err != nil {
			return epoch, fmt.Errorf("prefcqa: promoted to epoch %d but the fence is not durable: %w", epoch, err)
		}
	}
	return epoch, nil
}
