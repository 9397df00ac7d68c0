package replication

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prefcqa"
	"prefcqa/client"
)

// Host is the serving layer's side of replication: it owns the local
// databases a Manager replicates into.
type Host interface {
	// Replica returns the local database that replicates name —
	// creating it read-only when it does not exist yet — together with
	// the lock guarding its relation registry against concurrent
	// readers (creation records apply under its write side).
	Replica(name string) (*prefcqa.DB, *sync.RWMutex, error)
}

// Options tunes a Manager.
type Options struct {
	// Primary is the primary server's base URL (required).
	Primary string
	// HTTPClient performs discovery, snapshot and stream requests; it
	// must not set a client-wide timeout. Nil selects a client with its
	// own connection pool. Its idle connections are closed when the
	// discovery loop and each follower end.
	HTTPClient *http.Client
	// DiscoverInterval is how often the primary's database list is
	// re-polled for databases created after the follower attached
	// (default 2s).
	DiscoverInterval time.Duration
	// HeartbeatTimeout is how long without a frame before a follower
	// reports "disconnected" (default 3s).
	HeartbeatTimeout time.Duration
	// AutoPromote, when positive, promotes the whole follower after
	// that long without any contact with the primary — but only once
	// contact has been made at least once, so a follower booted
	// against a dead URL never seizes a lineage it has not seen.
	// Zero means promotion is manual only.
	AutoPromote time.Duration
}

func (o Options) withDefaults() Options {
	if o.HTTPClient == nil {
		o.HTTPClient = newHTTPClient()
	}
	if o.DiscoverInterval <= 0 {
		o.DiscoverInterval = 2 * time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 3 * time.Second
	}
	return o
}

// Manager runs a server's follower role: it discovers the primary's
// databases, keeps one Follower tailing each, and turns the whole
// server into a primary on Promote (explicit or heartbeat-triggered).
type Manager struct {
	host   Host
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	// wg counts the follower goroutines; loop counts the discovery
	// loop. They are separate because Promote — which may run FROM the
	// discovery loop on the auto-promote path — must wait for every
	// stream to stop before bumping epochs, but must not wait for the
	// loop itself.
	wg   sync.WaitGroup
	loop sync.WaitGroup

	mu        sync.Mutex
	followers map[string]*Follower
	contacted bool // ever reached the primary
	promoted  bool

	rounds atomic.Uint64 // completed discovery rounds, see Rounds
}

// NewManager builds a follower-role manager replicating from
// opts.Primary into host.
func NewManager(host Host, opts Options) *Manager {
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		host:      host,
		opts:      opts.withDefaults(),
		ctx:       ctx,
		cancel:    cancel,
		followers: make(map[string]*Follower),
	}
}

// PrimaryURL returns the primary this manager replicates from.
func (m *Manager) PrimaryURL() string { return m.opts.Primary }

// Promoted reports whether Promote has run.
func (m *Manager) Promoted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.promoted
}

// Follower returns the follower replicating the named database, or
// nil when the database is not (yet) replicated here.
func (m *Manager) Follower(name string) *Follower {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.followers[name]
}

// Rounds counts the discovery rounds that completed: the primary
// answered and every database it listed has its follower. Of two rounds
// completed after a caller looked, the second began after it did, so a
// database still without a follower then is one the primary does not
// list.
func (m *Manager) Rounds() uint64 { return m.rounds.Load() }

// Followers returns every follower, sorted by database name.
func (m *Manager) Followers() []*Follower {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Follower, 0, len(m.followers))
	for _, f := range m.followers {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Start launches the discovery loop. It returns immediately; the
// followers it spawns run until Stop or Promote.
func (m *Manager) Start() {
	m.loop.Add(1)
	go m.discoverLoop()
}

// Stop cancels every follower and waits for them to exit. The local
// databases stay read-only; use Promote to open them for writes.
func (m *Manager) Stop() {
	m.cancel()
	m.loop.Wait()
	m.wg.Wait()
}

// discoverLoop polls the primary's database list, attaching a
// follower to every database it has not seen, and drives the
// auto-promotion timer.
func (m *Manager) discoverLoop() {
	defer m.loop.Done()
	defer m.opts.HTTPClient.CloseIdleConnections()
	t := time.NewTicker(m.opts.DiscoverInterval)
	defer t.Stop()
	for {
		m.discoverOnce()
		if m.maybeAutoPromote() {
			return
		}
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
		}
	}
}

// discoverOnce fetches the primary's database list and attaches any
// new databases. Errors are transient by definition here — the stream
// loops surface persistent trouble through follower status.
func (m *Manager) discoverOnce() {
	ctx, cancel := context.WithTimeout(m.ctx, m.opts.DiscoverInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.opts.Primary+client.PathReplDBs, nil)
	if err != nil {
		return
	}
	resp, err := m.opts.HTTPClient.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var list client.ReplDBsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return
	}
	m.mu.Lock()
	m.contacted = true
	m.mu.Unlock()
	for _, name := range list.DBs {
		if err := m.attach(name); err != nil {
			return
		}
	}
	m.rounds.Add(1)
}

// attach starts a follower for the named database if none runs yet.
func (m *Manager) attach(name string) error {
	m.mu.Lock()
	if m.promoted || m.followers[name] != nil {
		m.mu.Unlock()
		return nil
	}
	m.mu.Unlock()
	db, schemaMu, err := m.host.Replica(name)
	if err != nil {
		return fmt.Errorf("replication: attaching %s: %w", name, err)
	}
	f := NewFollower(name, db, schemaMu, Config{
		Primary:          m.opts.Primary,
		HTTPClient:       m.opts.HTTPClient,
		HeartbeatTimeout: m.opts.HeartbeatTimeout,
	})
	m.mu.Lock()
	if m.promoted || m.followers[name] != nil {
		m.mu.Unlock()
		return nil
	}
	m.followers[name] = f
	// Add under the registry lock: Promote sets promoted before its
	// Wait, so an attach racing it either bails above or has its Add
	// observed by that Wait.
	m.wg.Add(1)
	m.mu.Unlock()
	go func() {
		defer m.wg.Done()
		_ = f.Run(m.ctx)
	}()
	return nil
}

// maybeAutoPromote promotes after opts.AutoPromote of silence from a
// primary that was reachable at least once. Returns true when it
// promoted (the discovery loop then exits).
func (m *Manager) maybeAutoPromote() bool {
	if m.opts.AutoPromote <= 0 {
		return false
	}
	m.mu.Lock()
	contacted, promoted := m.contacted, m.promoted
	followers := make([]*Follower, 0, len(m.followers))
	for _, f := range m.followers {
		followers = append(followers, f)
	}
	m.mu.Unlock()
	if promoted || !contacted || len(followers) == 0 {
		return false
	}
	var last time.Time
	for _, f := range followers {
		if t := f.LastContact(); t.After(last) {
			last = t
		}
	}
	if last.IsZero() || time.Since(last) < m.opts.AutoPromote {
		return false
	}
	if _, err := m.Promote(); err != nil {
		return false
	}
	return true
}

// Promote stops replication and opens every replicated database for
// writes at the exact sequence where its stream stopped, bumping the
// fencing epoch so a resurrected old primary's history is refused.
// It is idempotent; the response lists the promoted databases and the
// highest epoch now in force.
func (m *Manager) Promote() (client.PromoteResponse, error) {
	m.mu.Lock()
	if m.promoted {
		resp := client.PromoteResponse{}
		for name, f := range m.followers {
			resp.Promoted = append(resp.Promoted, name)
			if e := f.DB().Epoch(); e > resp.Epoch {
				resp.Epoch = e
			}
		}
		sort.Strings(resp.Promoted)
		m.mu.Unlock()
		return resp, nil
	}
	m.promoted = true
	m.mu.Unlock()

	// Stop the discovery loop and every stream, then wait: no record
	// may apply after the epoch advances.
	m.cancel()
	m.wg.Wait()

	resp := client.PromoteResponse{}
	var firstErr error
	for _, f := range m.Followers() {
		epoch, err := f.DB().Promote()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("replication: promoting %s: %w", f.Name(), err)
		}
		f.markStopped("promoted")
		resp.Promoted = append(resp.Promoted, f.Name())
		if epoch > resp.Epoch {
			resp.Epoch = epoch
		}
	}
	return resp, firstErr
}
