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
// as exactly one block (split only where a block would pass the block size
// cap), and compaction rewrites runs of small blocks as blocks that each
// hold whole stored blocks (Compact). The payload is a store block
// (store.AppendBlock): a uvarint record
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
	"slices"

	"rad/internal/store"
)

const (
	// segMagic opens every segment file; a file without it holds no
	// committed records.
	segMagic = "RADTDB1\n"
	// targetBlockBytes caps a block's payload: a write is split where a
	// block would pass it, measured as store.AppendFrames encodes, so only
	// a lone record larger than the cap makes a larger block. It keeps
	// every block far under store.MaxFramePayload and bounds the unit of
	// read amplification. It is 1 KiB under wire.MaxFrameSize (1 MiB), so
	// every block of two or more records fits one wire event frame, whose
	// other fields take 12 bytes. TestAppendBatchBlocksFitOneFrame pins it.
	targetBlockBytes = 1<<20 - 1<<10
)

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
