// Package replication implements WAL-shipping primary/follower
// replication over the prefserve HTTP layer.
//
// A primary is any durable prefserve: its write-ahead log is
// position-addressed and strictly replayable by construction, so
// replication is exactly "ship the checkpoint, then tail the log". A
// follower bootstraps each database from the primary's checkpoint
// image (client.PathReplSnapshot), tails the record stream
// (client.PathReplStream, long-polled NDJSON) and applies every
// record through the same strict-replay path crash recovery uses —
// logged history and applied state advance together, bit for bit.
//
// Reads on a follower are snapshot-isolated at its replicated
// watermark; a read demanding min_version waits (Follower.WaitVersion)
// until the watermark catches up, so read-your-writes holds through
// any replica. Promotion (Manager.Promote) stops the tails, bumps the
// fencing epoch and re-opens the databases for writes at the exact
// sequence where the primary stopped.
package replication

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"prefcqa"
	"prefcqa/client"
	"prefcqa/internal/wal"
)

// ErrStopped reports that a follower no longer advances its watermark
// (it was stopped or promoted), so a WaitVersion beyond it can never
// be satisfied by replication.
var ErrStopped = errors.New("replication: follower stopped")

// Config tunes a Follower.
type Config struct {
	// Primary is the primary server's base URL.
	Primary string
	// HTTPClient performs the snapshot and stream requests. It must
	// not set a client-wide timeout (the stream is long-lived); nil
	// selects a client with its own connection pool. Run closes the
	// client's idle connections when it returns.
	HTTPClient *http.Client
	// HeartbeatTimeout is how long without a frame before the follower
	// reports "disconnected" (default 3s).
	HeartbeatTimeout time.Duration
	// CommitEvery bounds how many applied records may sit above the
	// local durability barrier before the follower commits the batch
	// (default 64). The stream also commits whenever it idles.
	CommitEvery int
}

// newHTTPClient builds a client on its own transport — a private
// connection pool, so replication teardown can close every connection
// it dialed and nobody else's.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{Proxy: http.ProxyFromEnvironment}}
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = newHTTPClient()
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * time.Second
	}
	if c.CommitEvery <= 0 {
		c.CommitEvery = 64
	}
	return c
}

// Follower replicates one database from a primary into a local
// prefcqa.DB. Run drives it; WaitVersion parks readers until the
// replicated watermark reaches their min_version.
type Follower struct {
	name     string
	local    *prefcqa.DB
	schemaMu *sync.RWMutex // host lock guarding relation creation vs readers
	cfg      Config

	mu          sync.Mutex
	waitCh      chan struct{} // closed+replaced on every apply (watermark signal)
	status      string
	lastContact time.Time
	primarySeq  uint64 // primary's head seq, from the last heartbeat
	stopped     bool
}

// NewFollower builds a follower for the named database. local must be
// marked read-only by the caller; schemaMu is the host's per-database
// lock — relation-creating records apply under its write side, every
// other record under its read side, mirroring how the serving layer
// locks its own mutations.
func NewFollower(name string, local *prefcqa.DB, schemaMu *sync.RWMutex, cfg Config) *Follower {
	return &Follower{
		name:     name,
		local:    local,
		schemaMu: schemaMu,
		cfg:      cfg.withDefaults(),
		waitCh:   make(chan struct{}),
		status:   "bootstrapping",
	}
}

// Name returns the database name.
func (f *Follower) Name() string { return f.name }

// DB returns the local database the follower applies into.
func (f *Follower) DB() *prefcqa.DB { return f.local }

// setStatus records the lifecycle state shown in /v1/stats.
func (f *Follower) setStatus(s string) {
	f.mu.Lock()
	f.status = s
	f.mu.Unlock()
}

// touch records contact with the primary.
func (f *Follower) touch(primarySeq uint64) {
	f.mu.Lock()
	f.lastContact = time.Now()
	if primarySeq > f.primarySeq {
		f.primarySeq = primarySeq
	}
	f.mu.Unlock()
}

// LastContact returns when the follower last heard from the primary
// (zero before first contact).
func (f *Follower) LastContact() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastContact
}

// signal wakes every WaitVersion waiter.
func (f *Follower) signal() {
	f.mu.Lock()
	close(f.waitCh)
	f.waitCh = make(chan struct{})
	f.mu.Unlock()
}

// markStopped flips the follower to its terminal state and wakes all
// waiters so they can fall back.
func (f *Follower) markStopped(status string) {
	f.mu.Lock()
	f.stopped = true
	f.status = status
	close(f.waitCh)
	f.waitCh = make(chan struct{})
	f.mu.Unlock()
}

// WaitVersion blocks until the replicated watermark reaches v, the
// context is done, or the follower stops (ErrStopped — the caller
// falls back to its not-a-follower behavior, e.g. a 412).
func (f *Follower) WaitVersion(ctx context.Context, v uint64) error {
	for {
		// Capture the channel before testing the version: an apply that
		// lands after the test then closes the channel we hold. Testing
		// first would park us on the fresh channel of a signal we missed.
		f.mu.Lock()
		stopped, ch := f.stopped, f.waitCh
		f.mu.Unlock()
		if f.local.WriteVersion() >= v {
			return nil
		}
		if stopped {
			return ErrStopped
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Stats reports the follower's replication state for /v1/stats.
func (f *Follower) Stats() *client.ReplicationStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := &client.ReplicationStats{
		Role:          "follower",
		Primary:       f.cfg.Primary,
		AppliedSeq:    f.local.WriteVersion(),
		Epoch:         f.local.Epoch(),
		Status:        f.status,
		LastContactMS: -1,
	}
	if !f.lastContact.IsZero() {
		st.LastContactMS = time.Since(f.lastContact).Milliseconds()
		if st.Status == "streaming" && st.LastContactMS > f.cfg.HeartbeatTimeout.Milliseconds() {
			st.Status = "disconnected"
		}
	}
	if st.Status == "promoted" {
		st.Role = "primary"
	}
	return st
}

// Run bootstraps (when the local database is empty) and tails the
// primary's stream until the context is canceled or the follower hits
// a terminal condition (fenced, diverged, resync required). Errors
// along the way back off and retry — a primary restart must not kill
// its followers.
func (f *Follower) Run(ctx context.Context) error {
	defer f.cfg.HTTPClient.CloseIdleConnections()
	backoff := 50 * time.Millisecond
	for {
		if err := ctx.Err(); err != nil {
			f.markStopped("stopped")
			return nil
		}
		err := f.runOnce(ctx)
		switch {
		case err == nil:
			backoff = 50 * time.Millisecond // clean stream end: reconnect at once
			continue
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			f.markStopped("stopped")
			return nil
		case isTerminal(err):
			f.markStopped("failed: " + err.Error())
			return err
		}
		f.setStatus("disconnected")
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			f.markStopped("stopped")
			return nil
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// terminalError marks conditions retrying cannot fix: the replica
// diverged or was fenced and must be wiped and re-seeded by an
// operator.
type terminalError struct{ err error }

func (t *terminalError) Error() string { return t.err.Error() }
func (t *terminalError) Unwrap() error { return t.err }

func isTerminal(err error) bool {
	var t *terminalError
	return errors.As(err, &t)
}

// empty reports whether the local database has no replicated history
// yet — the only state bootstrap may run in.
func (f *Follower) empty() bool {
	return f.local.WriteVersion() == 0 && len(f.local.Relations()) == 0
}

// runOnce performs one bootstrap-if-needed plus one stream session.
func (f *Follower) runOnce(ctx context.Context) error {
	if f.empty() {
		f.setStatus("bootstrapping")
		if err := f.bootstrap(ctx); err != nil {
			return err
		}
	}
	return f.stream(ctx)
}

// bootstrap fetches the primary's checkpoint image and seeds the
// local database through the strict recovery loader.
func (f *Follower) bootstrap(ctx context.Context) error {
	u := f.cfg.Primary + client.PathReplSnapshot + "?db=" + url.QueryEscape(f.name)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replication: snapshot %s: HTTP %d", f.name, resp.StatusCode)
	}
	var snap client.ReplSnapshotResponse
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("replication: decoding snapshot: %w", err)
	}
	var ckpt wal.Checkpoint
	if err := json.Unmarshal(snap.Checkpoint, &ckpt); err != nil {
		return fmt.Errorf("replication: decoding snapshot checkpoint: %w", err)
	}
	f.schemaMu.Lock()
	err = f.local.ReplBootstrap(&ckpt)
	f.schemaMu.Unlock()
	if err != nil {
		return &terminalError{err}
	}
	f.touch(snap.Seq)
	f.signal()
	return nil
}

// stream opens one long-polled stream session from the watermark and
// applies frames until the primary closes the window, the connection
// drops, or the context ends. A nil return means "reconnect and
// continue"; a terminalError means the replica cannot continue.
func (f *Follower) stream(ctx context.Context) error {
	from := f.local.WriteVersion() + 1
	q := url.Values{}
	q.Set("db", f.name)
	q.Set("from_seq", strconv.FormatUint(from, 10))
	q.Set("epoch", strconv.FormatUint(f.local.Epoch(), 10))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.Primary+client.PathReplStream+"?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		// The primary refused our epoch: it is behind our lineage (a
		// resurrected pre-failover primary). Never apply from it.
		return fmt.Errorf("replication: %s: primary refused epoch %d (stale primary?)", f.name, f.local.Epoch())
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replication: stream %s: HTTP %d", f.name, resp.StatusCode)
	}
	f.setStatus("streaming")

	uncommitted := 0
	commit := func() error {
		if uncommitted == 0 {
			return nil
		}
		uncommitted = 0
		return f.local.ReplCommit(f.local.WriteVersion())
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var frame client.ReplFrame
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			return fmt.Errorf("replication: bad stream frame: %w", err)
		}
		switch {
		case frame.Error == "compacted":
			// Our position fell behind the primary's checkpoint
			// horizon. An empty replica just re-bootstraps; one with
			// history must be wiped and re-seeded — silently skipping
			// records is never an option.
			_ = commit()
			if f.empty() {
				return nil
			}
			return &terminalError{fmt.Errorf("replication: %s: position %d compacted on the primary; wipe the replica and re-seed", f.name, f.local.WriteVersion()+1)}
		case frame.Error != "":
			_ = commit()
			return fmt.Errorf("replication: stream error: %s", frame.Error)
		case frame.Heartbeat:
			f.touch(frame.Seq)
			if err := commit(); err != nil {
				return err
			}
		case len(frame.Record) > 0:
			var rec wal.Record
			if err := json.Unmarshal(frame.Record, &rec); err != nil {
				return fmt.Errorf("replication: bad stream record: %w", err)
			}
			if err := f.apply(rec); err != nil {
				_ = commit()
				return &terminalError{err}
			}
			f.touch(rec.Seq)
			f.signal()
			if uncommitted++; uncommitted >= f.cfg.CommitEvery {
				if err := commit(); err != nil {
					return err
				}
			}
		}
	}
	if err := commit(); err != nil {
		return err
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return nil // window closed cleanly; reconnect
}

// apply feeds one record through the strict replay path under the
// host's schema lock: creation records reshape the relation registry
// readers iterate, so they take the write side.
func (f *Follower) apply(rec wal.Record) error {
	if rec.Op == wal.OpCreate {
		f.schemaMu.Lock()
		defer f.schemaMu.Unlock()
	} else {
		f.schemaMu.RLock()
		defer f.schemaMu.RUnlock()
	}
	return f.local.ReplApply(rec)
}
