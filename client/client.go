package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"prefcqa"
)

// Client drives a prefserve server. It is safe for concurrent use;
// all methods honor the passed context.
type Client struct {
	base      string
	http      *http.Client
	retries   int
	retryBase time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (for custom
// transports, timeouts, or test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.http = hc }
}

// WithRetry makes idempotent read requests (Query, QueryOpen,
// CountRepairs, Repairs, Explain, Stats, Health) retry up to max
// times when the server sheds them with HTTP 503 (admission control),
// sleeping an exponentially growing, jittered backoff between
// attempts (base, 2·base, 4·base, ... ±50%; base <= 0 selects 10ms).
// Off by default; writes are never retried — a shed write's fate is
// the caller's decision.
func WithRetry(max int, base time.Duration) Option {
	return func(c *Client) {
		c.retries = max
		c.retryBase = base
	}
}

// New returns a client for the server at base, e.g.
// "http://127.0.0.1:7171".
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), http: &http.Client{}}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Close closes the client's idle keep-alive connections. The client
// stays usable — a later request dials again — so Close is safe to
// defer next to New; a client sharing a transport (http.DefaultTransport
// unless WithHTTPClient substituted one) closes that transport's idle
// connections.
func (c *Client) Close() { c.http.CloseIdleConnections() }

// BaseURL returns the server address the client was built with.
func (c *Client) BaseURL() string { return c.base }

// Do POSTs a JSON request body to an endpoint path and decodes the
// JSON response into out (skipped when nil) — the raw-protocol escape
// hatch behind the typed methods.
func (c *Client) Do(ctx context.Context, path string, in, out any) error {
	return c.do(ctx, path, in, out)
}

// ReadOption tunes a read request.
type ReadOption func(*ReadOptions)

// MinVersion makes the read observe a state at least as new as the
// given write-version (see VersionResponse) — read-your-writes across
// connections and processes.
func MinVersion(v uint64) ReadOption {
	return func(o *ReadOptions) { o.MinVersion = v }
}

// Timeout caps the server-side evaluation time of this read. A
// positive duration under one millisecond is sent as 1ms — the wire
// granularity — never as 0, which would select the server default.
func Timeout(d time.Duration) ReadOption {
	return func(o *ReadOptions) {
		ms := d.Milliseconds()
		if ms == 0 && d > 0 {
			ms = 1
		}
		o.TimeoutMS = ms
	}
}

func readOptions(opts []ReadOption) ReadOptions {
	var o ReadOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// do POSTs a JSON request and decodes a JSON response into out
// (skipped when out is nil).
func (c *Client) do(ctx context.Context, path string, in, out any) error {
	resp, err := c.send(ctx, http.MethodPost, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := responseError(resp); err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	// A reply is read whole (a json.Decoder would buffer it whole too)
	// and tolerates unknown fields, so a field a newer server adds does
	// not break this client.
	if err := ReadJSON(new(bytes.Buffer), resp.Body, out, false); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// doRead is do with the WithRetry policy applied: a 503 admission
// shed is retried after a jittered backoff, up to the configured cap.
// Only used for idempotent reads — re-sending one is always safe.
func (c *Client) doRead(ctx context.Context, path string, in, out any) error {
	for attempt := 0; ; attempt++ {
		err := c.do(ctx, path, in, out)
		if !c.shouldRetry(err, attempt) {
			return err
		}
		if err := c.backoff(ctx, attempt); err != nil {
			return err
		}
	}
}

// sendRead is send + status check with the WithRetry policy applied;
// it returns an open response the caller must close. Used by the
// streaming and GET reads.
func (c *Client) sendRead(ctx context.Context, method, path string, in any) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.send(ctx, method, path, in)
		if err == nil {
			if err = responseError(resp); err == nil {
				return resp, nil
			}
			resp.Body.Close()
		}
		if !c.shouldRetry(err, attempt) {
			return nil, err
		}
		if err := c.backoff(ctx, attempt); err != nil {
			return nil, err
		}
	}
}

func (c *Client) shouldRetry(err error, attempt int) bool {
	if c.retries <= 0 || attempt >= c.retries {
		return false
	}
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable
}

func (c *Client) backoff(ctx context.Context, attempt int) error {
	base := c.retryBase
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	d := base << attempt
	// Jitter to ±50% so shed clients do not re-arrive in lockstep.
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		// Room for a point read's request, which AppendJSON would
		// otherwise grow four times; a larger body grows once.
		blob, err := AppendJSON(make([]byte, 0, 256), in)
		if err != nil {
			return nil, fmt.Errorf("client: encoding %s request: %w", path, err)
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	return resp, nil
}

// responseError maps a non-2xx response to an error carrying the
// server's message and status code.
func responseError(resp *http.Response) error {
	if resp.StatusCode/100 == 2 {
		return nil
	}
	var e ErrorResponse
	blob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(blob, &e) != nil || e.Error == "" {
		e.Error = strings.TrimSpace(string(blob))
	}
	return &APIError{Status: resp.StatusCode, Message: e.Error, Primary: e.Primary}
}

// APIError is a non-2xx server response.
type APIError struct {
	Status  int
	Message string
	// Primary is set on HTTP 421 (write sent to a replication
	// follower): the primary's URL to retry against.
	Primary string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.Status)
}

// CreateDB registers a new named database on the server.
func (c *Client) CreateDB(ctx context.Context, db string) error {
	return c.do(ctx, PathCreateDB, CreateDBRequest{DB: db}, nil)
}

// CreateRelation creates a relation with the given typed attributes
// (kinds "name" or "int") and returns the published write-version.
func (c *Client) CreateRelation(ctx context.Context, db, rel string, attrs ...prefcqa.WireAttr) (uint64, error) {
	var out VersionResponse
	err := c.do(ctx, PathRelation, RelationRequest{DB: db, Relation: rel, Attrs: attrs}, &out)
	return out.Version, err
}

// NameAttr declares a name-typed wire attribute.
func NameAttr(name string) prefcqa.WireAttr { return prefcqa.WireAttr{Name: name, Kind: "name"} }

// IntAttr declares an integer-typed wire attribute.
func IntAttr(name string) prefcqa.WireAttr { return prefcqa.WireAttr{Name: name, Kind: "int"} }

// AddFD declares a functional dependency, e.g. "Dept -> Name, Salary".
func (c *Client) AddFD(ctx context.Context, db, rel, fd string) (uint64, error) {
	var out VersionResponse
	err := c.do(ctx, PathFD, FDRequest{DB: db, Relation: rel, FD: fd}, &out)
	return out.Version, err
}

// Insert adds a batch of tuples and returns their IDs (row order) and
// the published write-version. Build rows with prefcqa.MakeTuple.
func (c *Client) Insert(ctx context.Context, db, rel string, rows ...prefcqa.Tuple) ([]int, uint64, error) {
	var out InsertResponse
	err := c.do(ctx, PathInsert, insertTuples{db: db, relation: rel, rows: rows}, &out)
	return out.IDs, out.Version, err
}

// Delete tombstones tuples by ID as one batch — one write-version step
// per request, however many IDs — and returns how many were live
// (dead, unknown and repeated IDs are skipped) and the published
// write-version.
func (c *Client) Delete(ctx context.Context, db, rel string, ids ...int) (int, uint64, error) {
	var out DeleteResponse
	err := c.do(ctx, PathDelete, DeleteRequest{DB: db, Relation: rel, IDs: ids}, &out)
	return out.Deleted, out.Version, err
}

// Prefer records preference pairs (each pair's first tuple wins its
// conflict against the second) as one atomic batch — all of them or,
// when one names a tuple ID that is not live, none — and returns the
// published write-version: one step per request, however many pairs.
func (c *Client) Prefer(ctx context.Context, db, rel string, pairs ...[2]int) (uint64, error) {
	var out VersionResponse
	err := c.do(ctx, PathPrefer, PreferRequest{DB: db, Relation: rel, Pairs: pairs}, &out)
	return out.Version, err
}

// Query evaluates a closed query under the family's preferred-repair
// semantics on a pinned snapshot and returns the three-valued answer.
func (c *Client) Query(ctx context.Context, db string, f prefcqa.Family, query string, opts ...ReadOption) (prefcqa.Answer, error) {
	var out QueryResponse
	req := QueryRequest{DB: db, Family: f.String(), Query: query, ReadOptions: readOptions(opts)}
	if err := c.doRead(ctx, PathQuery, req, &out); err != nil {
		return 0, err
	}
	return parseAnswer(out.Answer)
}

func parseAnswer(s string) (prefcqa.Answer, error) {
	switch s {
	case prefcqa.True.String():
		return prefcqa.True, nil
	case prefcqa.False.String():
		return prefcqa.False, nil
	case prefcqa.Undetermined.String():
		return prefcqa.Undetermined, nil
	default:
		return 0, fmt.Errorf("client: unknown answer %q", s)
	}
}

// QueryOpen returns the certain answers of an open query as bindings
// of its free variables (values in wire syntax; decode with
// prefcqa.DecodeValue if typed values are needed).
func (c *Client) QueryOpen(ctx context.Context, db string, f prefcqa.Family, query string, opts ...ReadOption) ([]map[string]string, error) {
	var out QueryOpenResponse
	req := QueryRequest{DB: db, Family: f.String(), Query: query, ReadOptions: readOptions(opts)}
	if err := c.doRead(ctx, PathQueryOpen, req, &out); err != nil {
		return nil, err
	}
	return out.Bindings, nil
}

// CountRepairs returns the number of preferred repairs of a relation
// at a pinned snapshot.
func (c *Client) CountRepairs(ctx context.Context, db string, f prefcqa.Family, rel string, opts ...ReadOption) (int64, error) {
	var out CountResponse
	req := CountRequest{DB: db, Family: f.String(), Relation: rel, ReadOptions: readOptions(opts)}
	if err := c.doRead(ctx, PathCount, req, &out); err != nil {
		return 0, err
	}
	return out.Count, nil
}

// Repairs streams the preferred repairs of a relation (at most max;
// max <= 0 selects the server default) and calls yield for each.
// yield returns false to stop early. It reports whether the server
// truncated the enumeration at the cap.
func (c *Client) Repairs(ctx context.Context, db string, f prefcqa.Family, rel string, max int, yield func(*prefcqa.Instance) bool, opts ...ReadOption) (truncated bool, err error) {
	req := RepairsRequest{DB: db, Family: f.String(), Relation: rel, Max: max, ReadOptions: readOptions(opts)}
	resp, err := c.sendRead(ctx, http.MethodPost, PathRepairs, req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		var line RepairsLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return false, fmt.Errorf("client: bad repairs stream line: %w", err)
		}
		switch {
		case line.Error != "":
			return false, fmt.Errorf("client: repairs stream: %s", line.Error)
		case line.Done:
			return line.Truncated, nil
		case line.Repair != nil:
			inst, err := prefcqa.DecodeWire(*line.Repair)
			if err != nil {
				return false, fmt.Errorf("client: decoding streamed repair: %w", err)
			}
			if !yield(inst) {
				return false, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	return false, fmt.Errorf("client: repairs stream ended without a terminal line")
}

// Explain reports the physical query plans the planner chose for a
// closed query against the pinned full instances.
func (c *Client) Explain(ctx context.Context, db, query string, opts ...ReadOption) (ExplainResponse, error) {
	var out ExplainResponse
	req := ExplainRequest{DB: db, Query: query, ReadOptions: readOptions(opts)}
	err := c.doRead(ctx, PathExplain, req, &out)
	return out, err
}

// Stats samples the server's observability counters.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	resp, err := c.sendRead(ctx, http.MethodGet, PathStats, nil)
	if err != nil {
		return StatsResponse{}, err
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return StatsResponse{}, fmt.Errorf("client: decoding stats: %w", err)
	}
	return out, nil
}

// Health probes the server's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	resp, err := c.sendRead(ctx, http.MethodGet, PathHealth, nil)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// Promote asks a follower server to start accepting writes at the
// exact sequence where its primary stopped, bumping the fencing epoch
// (see PathPromote). It fails with HTTP 409 on a server that is not a
// follower.
//
// Replication is asynchronous: a write the old primary acknowledged but
// had not yet shipped to this follower is lost by the failover. A
// caller that must not lose a write reads it back from a follower at
// its version (MinVersion) before counting it as safe.
func (c *Client) Promote(ctx context.Context) (PromoteResponse, error) {
	var out PromoteResponse
	err := c.do(ctx, PathPromote, nil, &out)
	return out, err
}
