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
// followed by a sequence of blocks, each in store's frame (store.AppendFrame,
// which a dead-letter spill uses too):
//
//	+----------------+----------------+-------------------+
//	| 4-byte big-    | 4-byte big-    | payload           |
//	| endian length  | endian CRC32C  | (length bytes)    |
//	+----------------+----------------+-------------------+
//
// One block is one flush boundary: an AppendBatch call, or the
// DefaultBlockRecords per-record appends staged between two writes, lands
// as exactly one block (split only when it would exceed the block size
// cap). The payload is a store block (store.AppendBlock): a uvarint record
// count followed by that many records in store's record encoding. A wire
// trace event carries either those bytes as stored, when a snapshot replay
// forwards the whole block, or one record's. The encoding is canonical —
// encoding any decoded batch reproduces the original bytes — which is what
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
	"slices"

	"rad/internal/store"
)

const (
	// segMagic opens every segment file; a file without it holds no
	// committed records.
	segMagic = "RADTDB1\n"
	// targetBlockBytes is the soft payload size at which a large batch is
	// split across several blocks; it keeps every block far under
	// store.MaxFramePayload and bounds the unit of read amplification. It
	// also makes every block of two or more records fit one wire event
	// frame (wire.MaxFrameSize, also 1 MiB), header included, though only
	// by recordSizeEstimate's slack: the estimate counts each of a record's
	// length and count prefixes, eight at least, at 5 bytes, and a value
	// under 1 MiB needs at most 3, so such a block encodes at least 32
	// bytes under its estimate, against about 15 for its record count and
	// frame header. TestAppendBatchBlocksFitOneFrame pins it.
	targetBlockBytes = 1 << 20
)

// recordSizeEstimate upper-bounds a record's encoded size, used to split
// oversized batches at block boundaries before encoding.
func recordSizeEstimate(r *store.Record) int {
	n := 3*binary.MaxVarintLen64 + 8*binary.MaxVarintLen32
	n += len(r.Device) + len(r.Name) + len(r.Response) + len(r.Exception)
	n += len(r.Procedure) + len(r.Run) + len(r.Mode)
	for _, a := range r.Args {
		n += binary.MaxVarintLen32 + len(a)
	}
	return n
}

// decodePayload parses a block payload with br and appends its records to
// dst — only the records q matches, when q is non-nil, so a record the
// query rejects never lands in dst. Every record is parsed either way, and
// a malformed payload is store.ErrCorruptBlock. On error the returned
// slice is nil, though dst's backing array may already hold some of the
// block's records. A caller decoding block after block passes the same
// reader, so the records share its string chunks rather than each block
// starting chunks of its own.
func decodePayload(br *store.BlockReader, b []byte, dst []store.Record, q *Query) ([]store.Record, error) {
	if err := br.Reset(b); err != nil {
		return nil, err
	}
	if q == nil {
		dst = slices.Grow(dst, br.Len())
	}
	var r store.Record
	for br.Len() > 0 {
		if err := br.Next(&r); err != nil {
			return nil, err
		}
		if q == nil || q.Match(r) {
			dst = append(dst, r)
		}
	}
	return dst, nil
}
