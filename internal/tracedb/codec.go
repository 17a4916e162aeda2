// Package tracedb implements the repository's persistent trace store: an
// embedded, log-structured database that replaces the in-memory MemStore as
// the middlebox's primary sink. The paper's RATracer logs every command
// instance to a MongoDB document store (§III, Fig. 3); tracedb is that
// component made durable without an external server — append-only on-disk
// segments of checksummed record blocks, a sparse in-segment time index,
// per-segment posting lists keyed by device and command type, and a query
// API whose shapes match the analyses' sliced reads (per-device, per-run,
// per-window).
//
// # On-disk format
//
// A store is a directory of segment files named seg-00000000.seg,
// seg-00000001.seg, … Each segment starts with an 8-byte magic header and is
// followed by a sequence of blocks:
//
//	+----------------+----------------+-------------------+
//	| 4-byte big-    | 4-byte big-    | payload           |
//	| endian length  | endian CRC32C  | (length bytes)    |
//	+----------------+----------------+-------------------+
//
// One block is one flush boundary: an AppendBatch call, or the
// Options.BlockRecords per-record appends staged between two writes, lands
// as exactly one block (split only when it would exceed the block size
// cap). The payload is a uvarint record count followed by that many
// records in store's record encoding (store.AppendRecord), the same bytes
// a wire trace event carries. The encoding is canonical — encoding any
// decoded batch reproduces the original bytes — which is what
// FuzzSegmentRoundTrip pins down.
//
// # Crash safety
//
// A block is committed once its frame is fully written; readers only ever
// see committed offsets. On Open every segment is scanned: each block's
// length is bounds-checked and its CRC32C verified, and the scan stops at
// the first torn or corrupted block, truncating the file there. Everything
// up to the last fully-flushed block survives a crash; sequence numbers
// resume from the highest recovered record.
package tracedb

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"

	"rad/internal/store"
)

const (
	// segMagic opens every segment file; a file without it holds no
	// committed records.
	segMagic = "RADTDB1\n"
	// blockHeaderSize is the length + checksum prefix of every block.
	blockHeaderSize = 8
	// MaxBlockBytes bounds a single block payload so a corrupted length
	// field can never force an unbounded allocation during recovery.
	MaxBlockBytes = 16 << 20
	// targetBlockBytes is the soft payload size at which a large batch is
	// split across several blocks; it keeps every block far under
	// MaxBlockBytes and bounds the unit of read amplification.
	targetBlockBytes = 1 << 20
)

// castagnoli is the CRC32C polynomial table used for block checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt marks a block whose payload fails structural validation; the
// recovery scan treats it exactly like a failed checksum.
var errCorrupt = errors.New("tracedb: corrupt block payload")

// encodePayload appends the canonical block payload for recs to buf.
func encodePayload(buf []byte, recs []store.Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for i := range recs {
		buf = store.AppendRecord(buf, &recs[i])
	}
	return buf
}

// recordSizeEstimate upper-bounds a record's encoded size, used to split
// oversized batches at block boundaries before encoding.
func recordSizeEstimate(r store.Record) int {
	n := 3*binary.MaxVarintLen64 + 8*binary.MaxVarintLen32
	n += len(r.Device) + len(r.Name) + len(r.Response) + len(r.Exception)
	n += len(r.Procedure) + len(r.Run) + len(r.Mode)
	for _, a := range r.Args {
		n += binary.MaxVarintLen32 + len(a)
	}
	return n
}

// decodePayload parses a block payload and appends its records to dst —
// only the records q matches, when q is non-nil, so a record the query
// rejects never lands in dst. Every record is parsed either way. It never
// panics on corrupt input: the record count is bounded by the bytes left
// over store.MinRecordBytes before anything is allocated, and trailing
// garbage after the last record is rejected so that a decoded payload
// always re-encodes byte-identically. On error the returned slice is nil,
// though dst's backing array may already hold some of the block's records.
func decodePayload(b []byte, dst []store.Record, q *Query) ([]store.Record, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64((len(b)-n)/store.MinRecordBytes) {
		return nil, errCorrupt
	}
	if q == nil {
		dst = slices.Grow(dst, int(count))
	}
	pos := n
	for i := uint64(0); i < count; i++ {
		r, adv, ok := store.DecodeRecord(b[pos:])
		if !ok {
			return nil, errCorrupt
		}
		pos += adv
		if q == nil || q.Match(r) {
			dst = append(dst, r)
		}
	}
	if pos != len(b) {
		return nil, errCorrupt
	}
	return dst, nil
}
