// Package client is the Go client of the prefserve serving layer and
// the definition of its HTTP/JSON wire protocol. The request and
// response types in this file ARE the protocol: internal/server
// decodes and encodes exactly these shapes, so any HTTP client that
// speaks them (curl included) interoperates.
//
// Values cross the wire in the textual constant syntax of the
// library's query language — integers bare ("42"), names
// single-quoted with ” escaping ("'R&D'", "'it”s'") — so every
// value round-trips exactly; see prefcqa.EncodeValue. Instances
// (repair and clean results) cross as prefcqa.WireInstance.
//
// The read round trip — QueryRequest and CountRequest out,
// QueryResponse, QueryOpenResponse and CountResponse back — and the
// write round trip — InsertRequest, DeleteRequest and PreferRequest
// out, InsertResponse, DeleteResponse and VersionResponse back — go
// through AppendJSON and DecodeJSON, a codec without reflection that
// writes exactly encoding/json's bytes and reads exactly what
// encoding/json reads (handing it every body it does not take).
// prefserve uses the same two functions. The types carry no JSON
// methods, so encoding/json applied to them behaves as it always has.
package client

import (
	"encoding/json"

	"prefcqa"
)

// The endpoint paths of the v1 protocol. All bodies are JSON; every
// endpoint is POST except PathStats and PathHealth (GET). PathRepairs
// responds with an NDJSON stream of RepairsLine values.
const (
	PathCreateDB  = "/v1/db"
	PathRelation  = "/v1/relation"
	PathFD        = "/v1/fd"
	PathInsert    = "/v1/insert"
	PathDelete    = "/v1/delete"
	PathPrefer    = "/v1/prefer"
	PathQuery     = "/v1/query"
	PathQueryOpen = "/v1/query-open"
	PathCount     = "/v1/repairs/count"
	PathRepairs   = "/v1/repairs"
	PathExplain   = "/v1/explain"
	PathStats     = "/v1/stats"
	PathHealth    = "/healthz"
)

// The replication endpoints. A primary serves its checkpoint image
// (PathReplSnapshot, GET ?db=NAME), its database list (PathReplDBs,
// GET) and a long-polled NDJSON tail of WAL records (PathReplStream,
// GET ?db=NAME&from_seq=N&epoch=E). A follower accepts PathPromote
// (POST, no body) to start taking writes where the primary stopped.
const (
	PathReplSnapshot = "/v1/repl/snapshot"
	PathReplStream   = "/v1/repl/stream"
	PathReplDBs      = "/v1/repl/dbs"
	PathPromote      = "/v1/promote"
)

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Primary carries the primary's URL on a write rejected by a
	// follower (HTTP 421): the client should retry there.
	Primary string `json:"primary,omitempty"`
}

// ReadOptions are the common knobs of every read endpoint.
type ReadOptions struct {
	// MinVersion makes the read see a state at least as new as the
	// given database write-version — pass a write response's Version
	// for read-your-writes across connections. Zero means "latest
	// completed write", which this server always satisfies anyway.
	// A MinVersion beyond the database's current write-version (a
	// version from another database or server) is rejected with
	// HTTP 412 rather than silently served stale.
	MinVersion uint64 `json:"min_version,omitempty"`
	// TimeoutMS caps this request's evaluation time in milliseconds;
	// zero selects the server's default. The server clamps it to its
	// configured maximum. A deadline hit returns HTTP 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// CreateDBRequest registers a new named database (tenant).
type CreateDBRequest struct {
	DB string `json:"db"`
}

// RelationRequest creates a relation with the given typed schema.
type RelationRequest struct {
	DB       string             `json:"db"`
	Relation string             `json:"relation"`
	Attrs    []prefcqa.WireAttr `json:"attrs"`
}

// FDRequest declares a functional dependency, e.g. "Dept -> Name".
type FDRequest struct {
	DB       string `json:"db"`
	Relation string `json:"relation"`
	FD       string `json:"fd"`
}

// VersionResponse is the body of every successful write: the
// database's write-version after the mutation published. Pass it as
// ReadOptions.MinVersion to guarantee a later read observes it.
type VersionResponse struct {
	Version uint64 `json:"version"`
}

// InsertRequest inserts a batch of rows (cells in wire value syntax,
// one per attribute). Duplicate rows return their existing IDs (set
// semantics). The batch is validated whole before any row is
// applied: a malformed batch inserts nothing.
type InsertRequest struct {
	DB       string     `json:"db"`
	Relation string     `json:"relation"`
	Rows     [][]string `json:"rows"`
}

// InsertResponse returns the tuple ID of every inserted row, in row
// order, and the published write-version.
type InsertResponse struct {
	IDs     []int  `json:"ids"`
	Version uint64 `json:"version"`
}

// DeleteRequest tombstones tuples by ID.
type DeleteRequest struct {
	DB       string `json:"db"`
	Relation string `json:"relation"`
	IDs      []int  `json:"ids"`
}

// DeleteResponse reports how many of the IDs were live and the
// published write-version.
type DeleteResponse struct {
	Deleted int    `json:"deleted"`
	Version uint64 `json:"version"`
}

// PreferRequest records preference pairs: in each pair the first
// tuple wins its conflict against the second. A request is one atomic
// batch: every pair is validated before any applies, so a request
// naming an unknown or deleted tuple ID is refused whole (400) and
// changes nothing, and an accepted one is one write-version step (on a
// durable server one log record and one durability barrier).
type PreferRequest struct {
	DB       string   `json:"db"`
	Relation string   `json:"relation"`
	Pairs    [][2]int `json:"pairs"`
}

// QueryRequest evaluates a closed first-order query under a
// preferred-repair family ("rep", "local", "semiglobal", "global",
// "common").
type QueryRequest struct {
	DB     string `json:"db"`
	Family string `json:"family"`
	Query  string `json:"query"`
	ReadOptions
}

// QueryResponse carries the three-valued answer ("true", "false",
// "undetermined"), the write-version the pinned snapshot reflects (at
// least), and the per-relation instance versions it pinned.
type QueryResponse struct {
	Answer   string            `json:"answer"`
	Version  uint64            `json:"version"`
	Versions map[string]uint64 `json:"versions,omitempty"`
}

// QueryOpenResponse carries the certain answers of an open query:
// one binding per answer, free variable → wire-encoded value.
type QueryOpenResponse struct {
	Bindings []map[string]string `json:"bindings"`
	Version  uint64              `json:"version"`
}

// CountRequest counts the preferred repairs of one relation.
type CountRequest struct {
	DB       string `json:"db"`
	Family   string `json:"family"`
	Relation string `json:"relation"`
	ReadOptions
}

// CountResponse is the repair count at the pinned snapshot.
type CountResponse struct {
	Count   int64  `json:"count"`
	Version uint64 `json:"version"`
}

// RepairsRequest enumerates the preferred repairs of one relation as
// an NDJSON stream of RepairsLine values — one line per repair, then
// one terminal line (Done or Error set).
type RepairsRequest struct {
	DB       string `json:"db"`
	Family   string `json:"family"`
	Relation string `json:"relation"`
	// Max caps the number of streamed repairs; zero selects the
	// server default. The terminal line reports truncation.
	Max int `json:"max,omitempty"`
	ReadOptions
}

// RepairsLine is one line of the repair stream. Exactly one of
// Repair, Done or Error is set; a Done line closes a successful
// stream, an Error line closes a failed one.
type RepairsLine struct {
	Repair *prefcqa.WireInstance `json:"repair,omitempty"`
	// Done closes the stream: Count repairs were streamed, Truncated
	// reports whether Max cut the enumeration short.
	Done      bool   `json:"done,omitempty"`
	Count     int    `json:"count,omitempty"`
	Truncated bool   `json:"truncated,omitempty"`
	Error     string `json:"error,omitempty"`
}

// ExplainRequest reports the physical query plans of a closed query
// against the pinned full instances (index access paths, join order,
// estimated vs actual rows).
type ExplainRequest struct {
	DB    string `json:"db"`
	Query string `json:"query"`
	ReadOptions
}

// ExplainResponse mirrors prefcqa.PlanReport over the wire.
type ExplainResponse struct {
	Query   string   `json:"query"`
	Holds   bool     `json:"holds"`
	Plans   []string `json:"plans,omitempty"`
	Version uint64   `json:"version"`
}

// StatsResponse is the server's observability surface.
type StatsResponse struct {
	DBs    map[string]DBStats `json:"dbs"`
	Server ServerStats        `json:"server"`
}

// DBStats describes one named database.
type DBStats struct {
	WriteVersion uint64 `json:"write_version"`
	CacheHits    int64  `json:"cache_hits"`
	CacheMisses  int64  `json:"cache_misses"`
	// Open-query path counters: candidates from the spine and pins
	// alone vs a free variable ranged over the active domain, and which
	// vectorized executor ran the former's spines (worst-case-optimal
	// generic join, Yannakakis reduction, or greedy nested loop).
	OpenDirect   int64 `json:"open_direct"`
	OpenFallback int64 `json:"open_fallback"`
	WcojSpines   int64 `json:"wcoj_spines"`
	YanSpines    int64 `json:"yannakakis_spines"`
	GreedySpines int64 `json:"greedy_spines"`
	// Closed-query verification path counters: component-pruned
	// repair walks (ground or quantified with a sound support
	// analysis) vs full whole-database repair enumerations, and how
	// many of the pruned ones were decided on the union or the
	// intersection of the preferred repairs without walking them.
	ClosedPruned  int64 `json:"closed_pruned"`
	ClosedFull    int64 `json:"closed_full"`
	ClosedBounded int64 `json:"closed_bounded"`
	// Analysed-query cache counters: query texts answered with a kept
	// analysis vs parsed, validated and analysed.
	QueryCacheHits   int64                    `json:"query_cache_hits"`
	QueryCacheMisses int64                    `json:"query_cache_misses"`
	Relations        map[string]RelationStats `json:"relations"`
	// WAL describes the durability layer; absent on in-memory
	// databases. Replication describes this database's role in a
	// primary/follower topology; absent when the server neither follows
	// nor persists.
	WAL         *WALStats         `json:"wal,omitempty"`
	Replication *ReplicationStats `json:"replication,omitempty"`
}

// WALStats is the write-ahead log's observability surface: enough to
// monitor durability and replication lag from the outside.
type WALStats struct {
	// Seq is the last logged sequence (== the write-version),
	// CheckpointSeq the coverage of the newest durable checkpoint.
	Seq           uint64 `json:"seq"`
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// Epoch is the replication epoch; it advances on promotion.
	Epoch uint64 `json:"epoch"`
	// Segments and SegmentBytes describe the live log files on disk.
	Segments     int   `json:"segments"`
	SegmentBytes int64 `json:"segment_bytes"`
	// Fsync is the configured durability barrier: "always", "group" or
	// "never".
	Fsync string `json:"fsync"`
}

// ReplicationStats describes one database's replication state.
type ReplicationStats struct {
	// Role is "primary" (accepts writes, serves the stream) or
	// "follower" (applies the stream, refuses writes). A promoted
	// follower reports "primary" with Status "promoted".
	Role string `json:"role"`
	// Primary is the upstream URL a follower replicates from.
	Primary string `json:"primary,omitempty"`
	// AppliedSeq is the follower's replicated watermark: every record
	// up to it is applied and readable. On a primary it equals the
	// write-version.
	AppliedSeq uint64 `json:"applied_seq"`
	// Epoch is the database's replication epoch.
	Epoch uint64 `json:"epoch"`
	// Status is the follower's lifecycle: "bootstrapping", "streaming",
	// "disconnected", "promoted" or "failed: <reason>".
	Status string `json:"status,omitempty"`
	// LastContactMS is the time since the follower last heard from the
	// primary (a record or a heartbeat); -1 before first contact.
	LastContactMS int64 `json:"last_contact_ms,omitempty"`
}

// ReplSnapshotResponse is a primary's bootstrap image of one database:
// the checkpoint covering records 1..Seq, captured consistently at
// request time. Checkpoint is the wal.Checkpoint JSON; followers feed
// it to the same strict loader crash recovery uses.
type ReplSnapshotResponse struct {
	DB         string          `json:"db"`
	Seq        uint64          `json:"seq"`
	Epoch      uint64          `json:"epoch"`
	Checkpoint json.RawMessage `json:"checkpoint"`
}

// ReplFrame is one line of the NDJSON replication stream. Exactly one
// of Record, Heartbeat or Error is set. Record frames carry one
// wal.Record JSON payload, in strictly increasing seq order.
// Heartbeat frames report the primary's position while the tail is
// idle — the follower's liveness signal. An Error frame closes the
// stream; Error "compacted" means the requested position has been
// checkpointed away and the follower must re-bootstrap.
type ReplFrame struct {
	Record    json.RawMessage `json:"record,omitempty"`
	Heartbeat bool            `json:"heartbeat,omitempty"`
	// Seq/Epoch/CheckpointSeq describe the primary's log position on a
	// heartbeat or error frame.
	Seq           uint64 `json:"seq,omitempty"`
	Epoch         uint64 `json:"epoch,omitempty"`
	CheckpointSeq uint64 `json:"checkpoint_seq,omitempty"`
	Error         string `json:"error,omitempty"`
}

// ReplDBsResponse lists the databases a primary replicates.
type ReplDBsResponse struct {
	DBs []string `json:"dbs"`
}

// PromoteResponse reports a follower's promotion: the databases now
// accepting writes and the new (fencing) epoch.
type PromoteResponse struct {
	Promoted []string `json:"promoted"`
	Epoch    uint64   `json:"epoch"`
}

// RelationStats describes one relation at the latest snapshot.
type RelationStats struct {
	Version    uint64 `json:"version"`
	Tuples     int    `json:"tuples"`
	Conflicts  int    `json:"conflicts"`
	Components int    `json:"components"`
}

// ServerStats describes the serving process.
type ServerStats struct {
	// Inflight and MaxInflight describe the admission-control
	// semaphore at sampling time.
	Inflight    int `json:"inflight"`
	MaxInflight int `json:"max_inflight"`
	// Served counts completed requests, Rejected admission-control
	// 503s, Timeouts per-request deadline hits.
	Served   uint64 `json:"served"`
	Rejected uint64 `json:"rejected"`
	Timeouts uint64 `json:"timeouts"`
}
