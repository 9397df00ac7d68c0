// Package wal implements the durability layer of the engine: an
// append-only, CRC-framed write-ahead log of logical mutation batches
// plus periodic compacted checkpoints, with crash recovery that loads
// the latest valid checkpoint and replays the log tail.
//
// The log records the same mutation batches the facade's incremental
// delta path consumes — Insert / Delete / Prefer / AddFD / relation
// creation — with values in the relation/codec wire cell syntax, so a
// record is exactly a replayable facade mutation. Records are framed
// as
//
//	[4 bytes little-endian payload length][4 bytes CRC32-C of payload][payload]
//
// and tagged (inside the payload) with the post-apply write-version
// Seq, a monotone counter across the log's whole history. Recovery
// tolerates a torn final record (a crash mid-append) by truncating it;
// any other framing, CRC, continuity or decode failure is reported
// loudly — the log never silently replays wrong state.
//
// Durability policy is pluggable per log (SyncPolicy): fsync before
// acknowledging every batch (concurrent committers share one fsync —
// group commit), fsync on a bounded background interval, or never.
package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"slices"

	"prefcqa/internal/relation"
)

// Op identifies the mutation kind of a Record.
type Op string

// The record operations. They mirror the facade's mutation surface.
const (
	// OpCreate registers a relation: Rel names it, Attrs carry the
	// typed schema. Rows and IDs may carry a preloaded instance (all
	// tuples in ID order, IDs listing the tombstoned ones) — the
	// AddInstance path.
	OpCreate Op = "create"
	// OpFD declares a functional dependency FD (parser syntax) on Rel.
	OpFD Op = "fd"
	// OpInsert inserts Rows (wire cell syntax, one cell per attribute)
	// into Rel. Every row was fresh when logged: replaying it must
	// assign a new tuple ID.
	OpInsert Op = "insert"
	// OpDelete tombstones IDs in Rel. Every ID was live when logged.
	OpDelete Op = "delete"
	// OpPrefer records preference Pairs (winner, loser) on Rel. Every
	// pair was validated (both IDs live) and fresh when logged.
	OpPrefer Op = "prefer"
)

// Record is one logged mutation batch. Seq is the post-apply
// write-version: record n of the history carries Seq == n, starting
// at 1, with no gaps.
type Record struct {
	Seq uint64 `json:"seq"`
	// Epoch is the replication epoch the record was written under.
	// Epochs start at 1 and only advance on failover: promoting a
	// follower bumps the epoch, and every replica refuses records from
	// an older epoch — a resurrected primary cannot overwrite the
	// promoted history (fencing). Within one log epochs are
	// non-decreasing.
	Epoch uint64              `json:"epoch,omitempty"`
	Op    Op                  `json:"op"`
	Rel   string              `json:"rel,omitempty"`
	Attrs []relation.WireAttr `json:"attrs,omitempty"`
	Rows  [][]string          `json:"rows,omitempty"`
	IDs   []int               `json:"ids,omitempty"`
	Pairs [][2]int            `json:"pairs,omitempty"`
	FD    string              `json:"fd,omitempty"`
}

// CheckpointRelation is one relation's full writer-side state inside a
// checkpoint: every tuple in ID order (tombstoned ones included, so
// the TupleID universe — which tail records address — survives), the
// tombstoned IDs, the declared dependencies (parser syntax) and the
// recorded preference pairs.
//
// A decoded checkpoint carries the tuples as Rows and Dead. A captured
// one carries Inst instead: the relation's pinned instance version,
// from which the encoder (WritePayload) writes the same rows and dead
// IDs cell by cell, so a capture never renders the universe as
// strings.
type CheckpointRelation struct {
	Name  string              `json:"name"`
	Attrs []relation.WireAttr `json:"attrs"`
	Rows  [][]string          `json:"rows"`
	Dead  []int               `json:"dead,omitempty"`
	FDs   []string            `json:"fds,omitempty"`
	Prefs [][2]int            `json:"prefs,omitempty"`
	// Inst, when set, stands for Rows and Dead. Published instance
	// versions are immutable, so it is read with no lock held.
	Inst *relation.Instance `json:"-"`
}

// Checkpoint is a compacted snapshot of the whole database at
// write-version Seq: replaying it is equivalent to replaying records
// 1..Seq. After a checkpoint is durable the log is truncated; recovery
// loads the newest checkpoint and replays only records with Seq
// beyond it.
type Checkpoint struct {
	Seq uint64 `json:"seq"`
	// Epoch is the replication epoch at the time of the checkpoint —
	// see Record.Epoch. Checkpoints written before epochs existed carry
	// 0, which recovery normalizes to the initial epoch 1.
	Epoch     uint64               `json:"epoch,omitempty"`
	Relations []CheckpointRelation `json:"relations"`
}

const (
	frameHeaderLen = 8
	// maxFrameLen bounds a single record payload; a longer length
	// prefix followed by more data is corruption, not a real record.
	maxFrameLen = 256 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the CRC frame of payload to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// readFrame decodes one frame at the start of data. It returns the
// payload and the total frame size. A frame cut short by the end of
// data reports torn=true; a frame whose full length is present but
// whose CRC does not match reports torn=true only when the frame ends
// exactly at the end of data (a partially persisted final append) and
// a loud error otherwise. Zeros to the end of data are torn too: the
// blocks of an append that a crash left unwritten, never a frame, whose
// payload is never empty.
func readFrame(data []byte) (payload []byte, size int, torn bool, err error) {
	if len(data) < frameHeaderLen {
		return nil, 0, true, nil
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	if n == 0 && !slices.ContainsFunc(data, func(b byte) bool { return b != 0 }) {
		return nil, 0, true, nil
	}
	if n > maxFrameLen {
		if frameHeaderLen+n <= len(data) {
			return nil, 0, false, fmt.Errorf("wal: frame length %d exceeds limit", n)
		}
		return nil, 0, true, nil
	}
	if frameHeaderLen+n > len(data) {
		return nil, 0, true, nil
	}
	payload = data[frameHeaderLen : frameHeaderLen+n]
	sum := binary.LittleEndian.Uint32(data[4:8])
	if crc32.Checksum(payload, crcTable) != sum {
		if frameHeaderLen+n == len(data) {
			return nil, 0, true, nil // torn final append
		}
		return nil, 0, false, fmt.Errorf("wal: CRC mismatch on a non-final record")
	}
	return payload, frameHeaderLen + n, false, nil
}

// DecodeSegment decodes every record of a raw segment. It returns the
// decoded records, the number of bytes of the valid prefix, and
// whether a torn tail (a final record cut short by a crash) was
// dropped. Corruption anywhere before the final record — a CRC
// mismatch followed by more data, an oversized length, undecodable
// JSON, a non-monotone sequence — is a loud error, never a silent
// prefix.
func DecodeSegment(data []byte) (recs []Record, validLen int, torn bool, err error) {
	recs, ends, torn, err := decodeSegment(data)
	return recs, int(segEnd(ends)), torn, err
}

// decodeSegment is DecodeSegment's frame walk; ends[i] is the byte
// offset just past recs[i], which is what the Log's offset index keeps.
func decodeSegment(data []byte) (recs []Record, ends []int64, torn bool, err error) {
	off := 0
	for off < len(data) {
		payload, size, isTorn, err := readFrame(data[off:])
		if err != nil {
			return nil, nil, false, fmt.Errorf("%w (offset %d)", err, off)
		}
		if isTorn {
			return recs, ends, true, nil
		}
		var rec Record
		dec := json.NewDecoder(bytes.NewReader(payload))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return nil, nil, false, fmt.Errorf("wal: record at offset %d: %w", off, err)
		}
		if len(recs) > 0 && rec.Seq != recs[len(recs)-1].Seq+1 {
			return nil, nil, false, fmt.Errorf("wal: record at offset %d: sequence %d after %d", off, rec.Seq, recs[len(recs)-1].Seq)
		}
		off += size
		recs = append(recs, rec)
		ends = append(ends, int64(off))
	}
	return recs, ends, false, nil
}

// EncodeRecord frames a record for appending to a segment — the exact
// bytes Append writes, exposed for tests and tools.
func EncodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return appendFrame(nil, payload), nil
}

// decodeCheckpoint parses a checkpoint file: a single CRC frame
// holding the JSON checkpoint. Any failure is loud — a corrupt
// checkpoint must never be silently skipped.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	payload, size, torn, err := readFrame(data)
	if err != nil || torn || size != len(data) {
		if err == nil {
			err = fmt.Errorf("wal: truncated or trailing bytes")
		}
		return nil, fmt.Errorf("wal: invalid checkpoint: %w", err)
	}
	var c Checkpoint
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, fmt.Errorf("wal: invalid checkpoint: %w", err)
	}
	return &c, nil
}
