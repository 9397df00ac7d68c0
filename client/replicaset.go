package client

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"prefcqa"
)

// ReplicaSet is a follower-aware client over one primary and its
// replicas: reads fan out across the replicas round-robin (falling
// back to the primary when none answer) and writes route to the
// primary. Read-your-writes holds through any replica — the set
// remembers the highest write-version it produced per database and
// injects it as MinVersion on every read, which a follower holds
// until its replicated watermark catches up.
//
// Failover is automatic: a write refused with HTTP 421 re-points the
// set at the URL the follower names, and a write failing at an
// unreachable primary is offered to each replica — a promoted one
// accepts it and becomes the new primary.
//
// A ReplicaSet is safe for concurrent use.
type ReplicaSet struct {
	opts []Option
	rr   atomic.Uint64 // read rotation cursor

	mu       sync.Mutex
	primary  *Client
	replicas []*Client
	marks    map[string]uint64 // db → highest write-version produced here
}

// NewReplicaSet returns a set over the primary and its replicas.
// Options (WithRetry, WithHTTPClient, ...) apply to every member.
func NewReplicaSet(primaryURL string, replicaURLs []string, opts ...Option) *ReplicaSet {
	rs := &ReplicaSet{
		opts:    opts,
		primary: New(primaryURL, opts...),
		marks:   make(map[string]uint64),
	}
	for _, u := range replicaURLs {
		rs.replicas = append(rs.replicas, New(u, opts...))
	}
	return rs
}

// Close closes the idle connections of every member (Client.Close).
func (rs *ReplicaSet) Close() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.primary.Close()
	for _, r := range rs.replicas {
		r.Close()
	}
}

// Primary returns the member currently treated as the primary.
func (rs *ReplicaSet) Primary() *Client {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.primary
}

// Replicas returns the read replicas.
func (rs *ReplicaSet) Replicas() []*Client {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]*Client(nil), rs.replicas...)
}

// Watermark returns the highest write-version this set has produced
// for the database — the MinVersion its reads demand.
func (rs *ReplicaSet) Watermark(db string) uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.marks[db]
}

func (rs *ReplicaSet) mark(db string, version uint64) {
	if version == 0 {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if version > rs.marks[db] {
		rs.marks[db] = version
	}
}

// readTargets returns this read's rotation: the replicas starting at
// the round-robin cursor, then the primary as the last resort.
func (rs *ReplicaSet) readTargets() []*Client {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := len(rs.replicas)
	out := make([]*Client, 0, n+1)
	if n > 0 {
		start := int(rs.rr.Add(1)-1) % n
		for i := 0; i < n; i++ {
			out = append(out, rs.replicas[(start+i)%n])
		}
	}
	return append(out, rs.primary)
}

// readOpts prepends the database's watermark so caller-supplied
// options (an explicit MinVersion in particular) still win.
func (rs *ReplicaSet) readOpts(db string, opts []ReadOption) []ReadOption {
	if v := rs.Watermark(db); v > 0 {
		return append([]ReadOption{MinVersion(v)}, opts...)
	}
	return opts
}

// read tries each target until one answers. Transport failures and
// overload statuses (503 shed, 504 deadline) move to the next target;
// any other server response is definitive.
func (rs *ReplicaSet) read(fn func(*Client) error) error {
	var last error
	for _, t := range rs.readTargets() {
		err := fn(t)
		if err == nil {
			return nil
		}
		var ae *APIError
		if errors.As(err, &ae) && ae.Status != http.StatusServiceUnavailable && ae.Status != http.StatusGatewayTimeout {
			return err
		}
		last = err
	}
	return last
}

// Query evaluates a closed query on any replica at least as new as
// the set's write watermark.
func (rs *ReplicaSet) Query(ctx context.Context, db string, f prefcqa.Family, query string, opts ...ReadOption) (prefcqa.Answer, error) {
	var ans prefcqa.Answer
	err := rs.read(func(c *Client) error {
		a, err := c.Query(ctx, db, f, query, rs.readOpts(db, opts)...)
		if err == nil {
			ans = a
		}
		return err
	})
	return ans, err
}

// QueryOpen returns the certain answers of an open query from any
// replica at least as new as the set's write watermark.
func (rs *ReplicaSet) QueryOpen(ctx context.Context, db string, f prefcqa.Family, query string, opts ...ReadOption) ([]map[string]string, error) {
	var out []map[string]string
	err := rs.read(func(c *Client) error {
		b, err := c.QueryOpen(ctx, db, f, query, rs.readOpts(db, opts)...)
		if err == nil {
			out = b
		}
		return err
	})
	return out, err
}

// CountRepairs counts preferred repairs on any replica at least as
// new as the set's write watermark.
func (rs *ReplicaSet) CountRepairs(ctx context.Context, db string, f prefcqa.Family, rel string, opts ...ReadOption) (int64, error) {
	var n int64
	err := rs.read(func(c *Client) error {
		v, err := c.CountRepairs(ctx, db, f, rel, rs.readOpts(db, opts)...)
		if err == nil {
			n = v
		}
		return err
	})
	return n, err
}

// adopt re-points the set's primary at the given URL, reusing the
// member that already speaks to it when there is one.
func (rs *ReplicaSet) adopt(url string) *Client {
	url = strings.TrimRight(url, "/")
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.primary.BaseURL() == url {
		return rs.primary
	}
	for _, r := range rs.replicas {
		if r.BaseURL() == url {
			rs.primary = r
			return r
		}
	}
	rs.primary = New(url, rs.opts...)
	return rs.primary
}

// write routes a mutation to the primary, following one 421 redirect
// and — when the primary is unreachable — offering the write to each
// replica so a promoted follower picks it up and becomes the new
// primary.
func (rs *ReplicaSet) write(db string, fn func(*Client) (uint64, error)) (uint64, error) {
	primary := rs.Primary()
	v, err := fn(primary)
	if err == nil {
		rs.mark(db, v)
		return v, nil
	}
	var ae *APIError
	if errors.As(err, &ae) {
		if ae.Status == http.StatusMisdirectedRequest && ae.Primary != "" {
			v, err = fn(rs.adopt(ae.Primary))
			if err == nil {
				rs.mark(db, v)
			}
			return v, err
		}
		return 0, err // a definitive server answer, not a routing problem
	}
	for _, r := range rs.Replicas() {
		rv, rerr := fn(r)
		if rerr == nil {
			rs.adopt(r.BaseURL())
			rs.mark(db, rv)
			return rv, nil
		}
		if errors.As(rerr, &ae) && ae.Status == http.StatusMisdirectedRequest &&
			ae.Primary != "" && ae.Primary != primary.BaseURL() {
			// The follower points somewhere new: the topology moved.
			rv, rerr = fn(rs.adopt(ae.Primary))
			if rerr == nil {
				rs.mark(db, rv)
				return rv, nil
			}
		}
	}
	return 0, err
}

// CreateDB registers a database through the primary.
func (rs *ReplicaSet) CreateDB(ctx context.Context, db string) error {
	_, err := rs.write(db, func(c *Client) (uint64, error) {
		return 0, c.CreateDB(ctx, db)
	})
	return err
}

// CreateRelation creates a relation through the primary.
func (rs *ReplicaSet) CreateRelation(ctx context.Context, db, rel string, attrs ...prefcqa.WireAttr) (uint64, error) {
	return rs.write(db, func(c *Client) (uint64, error) {
		return c.CreateRelation(ctx, db, rel, attrs...)
	})
}

// AddFD declares a functional dependency through the primary.
func (rs *ReplicaSet) AddFD(ctx context.Context, db, rel, fd string) (uint64, error) {
	return rs.write(db, func(c *Client) (uint64, error) {
		return c.AddFD(ctx, db, rel, fd)
	})
}

// Insert adds tuples through the primary.
func (rs *ReplicaSet) Insert(ctx context.Context, db, rel string, rows ...prefcqa.Tuple) ([]int, uint64, error) {
	var ids []int
	v, err := rs.write(db, func(c *Client) (uint64, error) {
		i, v, err := c.Insert(ctx, db, rel, rows...)
		if err == nil {
			ids = i
		}
		return v, err
	})
	return ids, v, err
}

// Delete tombstones tuples through the primary.
func (rs *ReplicaSet) Delete(ctx context.Context, db, rel string, idList ...int) (int, uint64, error) {
	var deleted int
	v, err := rs.write(db, func(c *Client) (uint64, error) {
		d, v, err := c.Delete(ctx, db, rel, idList...)
		if err == nil {
			deleted = d
		}
		return v, err
	})
	return deleted, v, err
}

// Prefer records preference pairs through the primary.
func (rs *ReplicaSet) Prefer(ctx context.Context, db, rel string, pairs ...[2]int) (uint64, error) {
	return rs.write(db, func(c *Client) (uint64, error) {
		return c.Prefer(ctx, db, rel, pairs...)
	})
}
