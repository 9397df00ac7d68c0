// Package server implements prefserve: a concurrent HTTP/JSON serving
// layer over the prefcqa engine. It hosts a registry of named
// databases (tenants), answers preferred-repair reads from pinned
// snapshots so they run lock-free and concurrently with writes,
// batches writes through the facade's incremental delta path, and
// protects itself with admission control (a bounded in-flight
// semaphore) and per-request deadlines plumbed down into the
// evaluation engine via context cancellation.
//
// The wire protocol — paths, request and response shapes — is defined
// in prefcqa/client, which doubles as the Go client.
//
// # Consistency model
//
// Every read pins one prefcqa.Snapshot: the database's current
// version, a point-in-time cut across its relations, immune to
// concurrent mutation. Writes return a monotone per-database
// write-version; a read carrying min_version is served from a snapshot
// at least that new. A write publishes its version before it returns,
// so every read is at least as new as the last completed write, and a
// client that writes then reads on one connection — or hands its
// write version to another client — always observes its write
// (read-your-writes). Pinning is one atomic load in the facade: a
// read burst against a quiet database shares one version, and the
// facade's writer builds each version, not the reader.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prefcqa"
	"prefcqa/client"
	"prefcqa/internal/replication"
)

// Options configure a Server.
type Options struct {
	// MaxInflight bounds the number of requests admitted at once;
	// excess requests wait for a slot until their deadline and are
	// rejected with 503 when none frees up. Zero selects 64.
	MaxInflight int
	// DefaultTimeout is the per-request evaluation deadline applied
	// when the request does not carry timeout_ms. Zero selects 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested timeout_ms. Zero selects 5m.
	MaxTimeout time.Duration
	// MaxRepairs caps a repair enumeration stream when the request
	// does not set max. Zero selects 1024.
	MaxRepairs int
	// MaxBodyBytes bounds request bodies. Zero selects 32 MiB.
	MaxBodyBytes int64
	// DataDir, when set, makes every database durable: each named
	// database keeps a write-ahead log under DataDir/<name>, writes are
	// acknowledged under the configured sync policy (see
	// prefcqa.WithSyncPolicy in DBOptions), and RecoverDBs reopens
	// every database found there at boot. Empty means in-memory.
	DataDir string
	// DBOptions are applied to every database the server creates.
	DBOptions []prefcqa.Option
	// FollowURL, when set, runs this server as a replication follower
	// of the primary at that base URL: its databases are discovered
	// and replicated here read-only, reads are served snapshot-
	// isolated at the replicated watermark, and writes are refused
	// with 421 naming the primary. See StartReplication and Promote.
	FollowURL string
	// AutoPromote, when positive on a follower, promotes this server
	// after that long without any contact with the primary. Zero means
	// promotion is manual only (POST /v1/promote).
	AutoPromote time.Duration
	// StreamWindow bounds one long-polled replication stream response;
	// the follower reconnects after each window. Zero selects 25s.
	StreamWindow time.Duration
	// HeartbeatInterval is how often an idle replication stream emits
	// a heartbeat frame. Zero selects 1s.
	HeartbeatInterval time.Duration
	// DiscoverInterval is how often a follower re-polls the primary's
	// database list. Zero selects the replication default (2s).
	DiscoverInterval time.Duration
}

// Connection limits. Constants, not Options: no deployment needs another
// value. A request's body and its reply are bounded per request
// (MaxBodyBytes, timeout_ms, StreamWindow), not here.
const (
	// readHeaderTimeout is how long a connection may take to send a
	// request line and headers: a peer that connects and stalls is
	// closed instead of holding a goroutine and a descriptor for good.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes a keep-alive connection that has carried no
	// request for this long (above the 90 s after which Go's default
	// client transport drops it itself, so the client closes first).
	idleTimeout = 2 * time.Minute
)

func (o Options) withDefaults() Options {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 5 * time.Minute
	}
	if o.MaxRepairs <= 0 {
		o.MaxRepairs = 1024
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.StreamWindow <= 0 {
		o.StreamWindow = 25 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	o.FollowURL = strings.TrimRight(o.FollowURL, "/")
	return o
}

// Server is the prefserve HTTP server. Create with New, expose with
// Serve (or use Handler under an existing http.Server), stop with
// Shutdown.
type Server struct {
	opts Options
	mux  *http.ServeMux
	http *http.Server

	mu      sync.RWMutex // guards tenants
	tenants map[string]*tenant

	sem      chan struct{} // admission-control slots
	served   atomic.Uint64
	rejected atomic.Uint64
	timeouts atomic.Uint64

	repl     *replication.Manager // follower role; nil on a primary
	stop     chan struct{}        // closed on Shutdown; ends stream windows
	stopOnce sync.Once

	// fresh holds accepted connections that have not carried a request
	// yet (http.StateNew — typically a client transport's speculative
	// dial). net/http counts them as active for a fixed 5 s during
	// Shutdown; Shutdown closes them at once instead.
	freshMu sync.Mutex
	fresh   map[net.Conn]struct{}
	closing bool
}

// tenant is one named database plus its serving state.
type tenant struct {
	name string
	// mu is the lock Replica hands a replication follower, which takes
	// it around every record it applies. Nothing else needs it:
	// prefcqa.DB synchronizes relation creation, reads and writes
	// itself, and no read or write handler takes it.
	mu sync.RWMutex
	db *prefcqa.DB
}

// version is the database's write-version: the facade bumps it once
// per published mutation record, handlers return it to the client, and
// snapshotAtLeast accepts it back as min_version. On a durable
// database it is the write-ahead log sequence, so it survives restart
// and a version handed out before a crash remains satisfiable after
// recovery.
func (t *tenant) version() uint64 { return t.db.WriteVersion() }

// New returns a Server with an empty database registry.
func New(opts Options) *Server {
	s := &Server{
		opts:    opts.withDefaults(),
		tenants: make(map[string]*tenant),
		stop:    make(chan struct{}),
		fresh:   make(map[net.Conn]struct{}),
	}
	s.sem = make(chan struct{}, s.opts.MaxInflight)
	s.mux = http.NewServeMux()
	s.routes()
	s.http = &http.Server{
		Handler:           s.mux,
		ConnState:         s.trackConn,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	return s
}

// trackConn keeps s.fresh equal to the set of connections in
// http.StateNew, and refuses new ones once Shutdown has begun.
func (s *Server) trackConn(c net.Conn, state http.ConnState) {
	s.freshMu.Lock()
	defer s.freshMu.Unlock()
	switch {
	case state != http.StateNew:
		delete(s.fresh, c)
	case s.closing:
		c.Close()
	default:
		s.fresh[c] = struct{}{}
	}
}

// Handler returns the server's root handler, for embedding in an
// existing http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown gracefully stops the server: no new connections, in-flight
// requests drain until ctx expires, then every durable database is
// closed — flushing and fsyncing its write-ahead log — so a SIGTERM
// drain loses nothing even under the "group" and "never" sync
// policies.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stop) }) // end replication stream windows
	if s.repl != nil {
		s.repl.Stop()
	}
	s.freshMu.Lock()
	s.closing = true
	for c := range s.fresh {
		c.Close() // never carried a request: nothing in flight to drain
	}
	s.freshMu.Unlock()
	err := s.http.Shutdown(ctx)
	s.mu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	for _, t := range tenants {
		if cerr := t.db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// CreateDB registers a named database programmatically (the HTTP
// equivalent is POST /v1/db) — used by the daemon to preload data.
// With DataDir set the database is durable, rooted at DataDir/<name>.
func (s *Server) CreateDB(name string) (*prefcqa.DB, error) {
	if name == "" {
		return nil, fmt.Errorf("server: empty database name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenants[name]; dup {
		return nil, fmt.Errorf("server: database %q already exists", name)
	}
	db, err := s.openDB(name)
	if err != nil {
		return nil, err
	}
	t := &tenant{name: name, db: db}
	s.tenants[name] = t
	return t.db, nil
}

// openDB builds a tenant's database: durable under DataDir/<name>
// when a data directory is configured, in-memory otherwise.
func (s *Server) openDB(name string) (*prefcqa.DB, error) {
	if s.opts.DataDir == "" {
		return prefcqa.New(s.opts.DBOptions...), nil
	}
	if err := validateDBName(name); err != nil {
		return nil, err
	}
	return prefcqa.Open(filepath.Join(s.opts.DataDir, name), s.opts.DBOptions...)
}

// validateDBName rejects names that cannot double as a directory
// name under DataDir.
func validateDBName(name string) error {
	if name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
		return fmt.Errorf("server: database name %q is not usable as a directory name", name)
	}
	return nil
}

// RecoverDBs reopens every database found under DataDir — loading
// each one's newest checkpoint and replaying its log tail — and
// registers them for serving, returning the recovered names. Called
// at boot, before the listener opens; a no-op without a DataDir. A
// database that fails recovery aborts the boot: serving a silently
// emptier registry would violate every version its clients hold.
func (s *Server) RecoverDBs() ([]string, error) {
	if s.opts.DataDir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(s.opts.DataDir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if _, dup := s.tenants[name]; dup {
			continue
		}
		db, err := prefcqa.Open(filepath.Join(s.opts.DataDir, name), s.opts.DBOptions...)
		if err != nil {
			return nil, fmt.Errorf("server: recovering database %q: %w", name, err)
		}
		if s.opts.FollowURL != "" {
			// A restarted follower resumes read-only; replication
			// re-attaches at the recovered watermark.
			db.SetReadOnly(true)
		}
		s.tenants[name] = &tenant{name: name, db: db}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// tenant resolves a named database.
func (s *Server) tenant(name string) (*tenant, error) {
	s.mu.RLock()
	t, ok := s.tenants[name]
	s.mu.RUnlock()
	if !ok {
		return nil, &httpError{code: http.StatusNotFound, err: fmt.Errorf("unknown database %q", name)}
	}
	return t, nil
}

// snapshotAtLeast returns the database's current version, which must
// cover write-version min.
//
// A min above the version's write-version cannot be honored and is
// rejected (412): every version this database ever returned is
// published by now (a write publishes before its version is handed
// out), so an unsatisfiable min is a client mixing up versions across
// databases or servers — serving older data with a 200 would silently
// void the read-your-writes contract. A relation whose preferences do
// not form a priority fails the snapshot with a prefcqa.PriorityError,
// which writeHandlerError answers with 409.
func (t *tenant) snapshotAtLeast(min uint64) (*prefcqa.Snapshot, error) {
	snap, err := t.db.Snapshot()
	if err != nil {
		return nil, err
	}
	if wv := snap.WriteVersion(); min > wv {
		return nil, &httpError{
			code: http.StatusPreconditionFailed,
			err:  fmt.Errorf("min_version %d is beyond database %q's write-version %d (version from another database?)", min, t.name, wv),
		}
	}
	return snap, nil
}

// httpError carries a status code with an error.
type httpError struct {
	code int
	err  error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

// handlerFunc is an endpoint body: it returns an error to be mapped
// to a status code (httpError for a specific one, 400 otherwise).
type handlerFunc func(w http.ResponseWriter, r *http.Request) error

// endpoint wraps a handler with admission control and accounting.
// Admission: the request must win a semaphore slot before any work;
// when the server is saturated it waits until the client gives up or
// the request deadline passes, then is rejected with 503.
func (s *Server) endpoint(method string, h handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use %s", method))
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			// Saturated: wait for a slot, bounded by the default
			// timeout so a stuffed queue sheds load instead of piling
			// up goroutines forever.
			waitCtx, cancel := context.WithTimeout(r.Context(), s.opts.DefaultTimeout)
			select {
			case s.sem <- struct{}{}:
				cancel()
			case <-waitCtx.Done():
				cancel()
				s.rejected.Add(1)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, errors.New("server saturated (admission control)"))
				return
			}
		}
		defer func() { <-s.sem }()
		defer s.served.Add(1)
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
		if err := h(w, r); err != nil {
			s.writeHandlerError(w, err)
		}
	})
}

// readCtx derives the evaluation context of a read request from its
// timeout options: the requested timeout clamped to MaxTimeout, on
// top of the client connection's own cancellation.
func (s *Server) readCtx(r *http.Request, opts client.ReadOptions) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultTimeout
	if opts.TimeoutMS > 0 {
		// Clamped in milliseconds first: a huge timeout_ms would wrap
		// the Duration negative and expire the read at once.
		d = time.Duration(min(opts.TimeoutMS, s.opts.MaxTimeout.Milliseconds()+1)) * time.Millisecond
	}
	if d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// writeHandlerError maps a handler error to a status code.
func (s *Server) writeHandlerError(w http.ResponseWriter, err error) {
	var he *httpError
	var pe *prefcqa.PriorityError
	switch {
	case errors.As(err, &he):
		writeError(w, he.code, he.err)
	case errors.As(err, &pe):
		// Preferences that leave no priority are the client's doing: a
		// refused write, or a relation whose recorded history cannot be
		// built.
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, prefcqa.ErrReadOnly):
		// A write reached a follower. 421 plus the primary's URL lets a
		// follower-aware client re-route instead of failing.
		primary := ""
		if s.repl != nil {
			primary = s.repl.PrimaryURL()
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		json.NewEncoder(w).Encode(client.ErrorResponse{ //nolint:errcheck // best effort on a failing request
			Error:   "read-only replica: writes go to the primary",
			Primary: primary,
		})
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, errors.New("deadline exceeded"))
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to write.
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(client.ErrorResponse{Error: err.Error()}) //nolint:errcheck // best effort on a failing request
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// maxPooledBody bounds the buffers returned to bodies. A read's
// request and reply and most writes' are a few hundred bytes; a buffer
// grown past this held a bulk insert or an outlier (a long open answer
// or query text) and would pin that memory in the pool, so it is
// dropped.
const maxPooledBody = 4 << 10

// maxPresize bounds the room decode makes for a body before it has
// read a byte of it. Content-Length is the peer's claim, not bytes that
// arrived: a header that claims MaxBodyBytes must not make the server
// hold that much for a body that never comes. The largest body the
// serving traffic sends, a 10 000-row bulk insert, is about 140 KB, so
// it still fits in one allocation; a larger body grows the buffer only
// as its bytes arrive.
const maxPresize = 1 << 20

// bodies lends the buffers that request bodies are read into and
// codec replies are written from.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getBody returns an empty buffer with room for n bytes and the
// MinRead more ReadFrom wants.
func getBody(n int64) *bytes.Buffer {
	b := bodies.Get().(*bytes.Buffer)
	b.Reset()
	b.Grow(int(max(n, 0)) + bytes.MinRead)
	return b
}

func putBody(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBody {
		bodies.Put(b)
	}
}

// decode reads a request body whole into a pooled buffer and decodes
// it into dst with client.ReadJSON, unknown fields disallowed: the
// read and write shapes of the codec without reflection, every other
// request with json.Decoder. json.Decoder buffered a body whole
// anyway; the buffer here is presized from Content-Length, capped at
// maxPresize and MaxBodyBytes, instead of doubling its way up from a
// few KB.
func (s *Server) decode(r *http.Request, dst any) error {
	buf := getBody(min(r.ContentLength, s.opts.MaxBodyBytes, maxPresize))
	defer putBody(buf)
	if err := client.ReadJSON(buf, r.Body, dst, true); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// writeReply is writeJSON with the client codec, for the read and
// write replies it covers (client.QueryResponse, InsertResponse,
// VersionResponse, …): the same bytes.
func writeReply(w http.ResponseWriter, v any) error {
	buf := getBody(0)
	defer putBody(buf)
	b, err := client.AppendJSON(buf.AvailableBuffer(), v)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	_, err = w.Write(b)
	return err
}

// Stats samples the server's counters (also served at /v1/stats).
func (s *Server) Stats() client.ServerStats {
	return client.ServerStats{
		Inflight:    len(s.sem),
		MaxInflight: s.opts.MaxInflight,
		Served:      s.served.Load(),
		Rejected:    s.rejected.Load(),
		Timeouts:    s.timeouts.Load(),
	}
}
