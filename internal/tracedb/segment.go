package tracedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"rad/internal/store"
)

// segment is one on-disk file of record blocks plus its in-memory index.
// The writer appends blocks at the committed tail of the active (last)
// segment with WriteAt; readers use ReadAt at offsets below the committed
// size, so concurrent reads never race the writer. Sealed segments (all but
// the last) are immutable until the lifecycle engine retires them.
//
// Lifecycle: refs counts the owners of the segment — the DB itself plus
// every in-flight scan snapshot that planned blocks from it. Compaction and
// retention retire a segment by dropping the DB's reference; the file is
// closed, and unlinked, only when the last snapshot drains, so an iterator
// opened before a compaction keeps reading the pre-compaction bytes it
// planned (copy-on-write segment swap).
type segment struct {
	id    int // lowest plain-segment id this file covers
	hi    int // highest covered id; == id unless the file was compacted
	path  string
	f     *os.File
	size  int64 // committed bytes, including the magic header
	index segmentIndex

	refs      atomic.Int32 // DB ownership + in-flight snapshots
	retired   atomic.Bool  // unlink (not just close) once refs drains
	compacted bool         // produced by the compactor (range-named file)
}

// acquire adds a snapshot reference; the segment's file stays open (and on
// disk) until a matching release.
func (s *segment) acquire() { s.refs.Add(1) }

// release drops one reference. When the last reference drains the file is
// closed, and removed if the segment was retired by compaction or
// retention. Close/remove errors are ignored: release races DB.Close by
// design, and both double-close and double-unlink are harmless.
func (s *segment) release() {
	if s.refs.Add(-1) != 0 {
		return
	}
	s.f.Close()
	if s.retired.Load() {
		os.Remove(s.path)
	}
}

// segmentPath returns the file name of plain segment id inside dir.
func segmentPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.seg", id))
}

// compactedPath returns the file name of a compacted segment covering plain
// ids [lo, hi] inside dir.
func compactedPath(dir string, lo, hi int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d-%08d.seg", lo, hi))
}

// tmpSuffix marks in-progress compaction outputs; Open deletes leftovers.
const tmpSuffix = ".tmp"

// parseSegmentName extracts the covered id range from a segment file name:
// seg-%08d.seg (a plain segment, lo == hi) or seg-%08d-%08d.seg (a
// compacted segment covering [lo, hi]). compacted reports which form
// matched.
func parseSegmentName(name string) (lo, hi int, compacted, ok bool) {
	if strings.HasSuffix(name, tmpSuffix) {
		return 0, 0, false, false
	}
	if _, err := fmt.Sscanf(name, "seg-%d-%d.seg", &lo, &hi); err == nil {
		if fmt.Sprintf("seg-%08d-%08d.seg", lo, hi) == name && lo <= hi {
			return lo, hi, true, true
		}
		return 0, 0, false, false
	}
	if _, err := fmt.Sscanf(name, "seg-%d.seg", &lo); err == nil {
		if fmt.Sprintf("seg-%08d.seg", lo) == name {
			return lo, lo, false, true
		}
	}
	return 0, 0, false, false
}

// createSegment creates a fresh plain segment file and writes its magic
// header.
func createSegment(dir string, id int) (*segment, error) {
	path := segmentPath(dir, id)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tracedb: create segment: %w", err)
	}
	if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("tracedb: write segment header: %w", err)
	}
	s := &segment{
		id: id, hi: id, path: path, f: f,
		size:  int64(len(segMagic)),
		index: newSegmentIndex(),
	}
	s.refs.Store(1)
	return s, nil
}

// openSegment opens an existing segment file and recovers it: it scans the
// blocks in order, verifying each length and CRC32C and decoding each
// payload, stops at the first torn or corrupted block, truncates the file
// there, and rebuilds the in-memory index from the surviving blocks. A file
// with a missing or damaged magic header holds no committed records and is
// reset to an empty segment.
func openSegment(path string, lo, hi int, compacted bool) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("tracedb: open segment: %w", err)
	}
	s := &segment{id: lo, hi: hi, path: path, f: f, compacted: compacted, index: newSegmentIndex()}
	s.refs.Store(1)

	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tracedb: stat segment: %w", err)
	}
	fileSize := st.Size()

	hdr := make([]byte, len(segMagic))
	if _, err := f.ReadAt(hdr, 0); err != nil || string(hdr) != segMagic {
		// Torn before the header finished: nothing was committed. Reset the
		// file to a valid empty segment.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("tracedb: reset torn segment: %w", err)
		}
		if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("tracedb: rewrite segment header: %w", err)
		}
		s.size = int64(len(segMagic))
		return s, nil
	}

	off := int64(len(segMagic))
	var bh [store.FrameHeaderSize]byte
	var br store.BlockReader
	var t blockTally
	var buf *[]byte
	var recs []store.Record
	for {
		if _, err := f.ReadAt(bh[:], off); err != nil {
			break // torn inside a block header
		}
		n, wantCRC, err := store.ParseFrameHeader(bh[:])
		if err != nil {
			break // corrupted length field
		}
		if off+store.FrameHeaderSize+int64(n) > fileSize {
			break // torn inside the payload
		}
		buf = store.GrowBlockBuf(buf, n)
		payload := *buf
		if _, err := f.ReadAt(payload, off+store.FrameHeaderSize); err != nil {
			break
		}
		if store.CheckFrame(payload, wantCRC) != nil {
			break // corrupted payload
		}
		if recs, err = decodePayload(&br, payload, recs[:0], nil); err != nil {
			break // checksum collision with a structurally broken payload
		}
		s.index.addBlock(&t, blockMeta{off: off, payloadLen: int32(n), crc: wantCRC}, recs, 0, false)
		off += store.FrameHeaderSize + int64(n)
	}
	store.PutBlockBuf(buf) // no decoded record aliases it
	if off < fileSize {
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, fmt.Errorf("tracedb: truncate torn tail: %w", err)
		}
	}
	s.size = off
	return s, nil
}

// errDebris marks the error of a failed write of several blocks whose
// debris could not be truncated: whole frames of it may stand past the
// committed tail, and the next Open would recover them as committed.
var errDebris = errors.New("tracedb: a failed write left blocks the segment could not drop; reopen the store")

// appendBlocks writes recs at the committed tail as one block, or as
// several where a block's payload would pass targetBlockBytes
// (store.AppendFrames), and indexes each block through t. A writer that
// numbers the records as it writes them passes numbered and the first
// number, seq; otherwise each record keeps its own Seq. The frames are
// encoded into *buf and go to the file in one write; a block over
// store.MaxFramePayload is refused unwritten, since recovery would stop at
// it. The committed size and index advance only after the write succeeds,
// so a failed write commits none of the blocks, and its debris is
// truncated. If that fails too after a write of several blocks, the error
// wraps errDebris. It returns the number of blocks written.
func (s *segment) appendBlocks(t *blockTally, buf *[]byte, recs []store.Record, seq uint64, numbered bool) (int, error) {
	b := store.AppendFrames((*buf)[:0], recs, seq, numbered, targetBlockBytes)
	*buf = b
	var one [1]blockMeta
	blocks := one[:0] // each block's frame offset in b, payload length, CRC and record count
	for at := 0; at < len(b); {
		n, crc, err := store.ParseFrameHeader(b[at:])
		if err != nil {
			return 0, fmt.Errorf("tracedb: append block: %w", err)
		}
		count, _ := binary.Uvarint(b[at+store.FrameHeaderSize:])
		blocks = append(blocks, blockMeta{off: int64(at), payloadLen: int32(n), crc: crc, count: int32(count)})
		at += store.FrameHeaderSize + n
	}
	if _, err := s.f.WriteAt(b, s.size); err != nil {
		// A lone block's debris is at most a torn frame, which the next
		// write overwrites or Open drops.
		if terr := s.f.Truncate(s.size); terr != nil && len(blocks) > 1 {
			return 0, fmt.Errorf("%w: %w", errDebris, err)
		}
		return 0, fmt.Errorf("tracedb: append block: %w", err)
	}
	for _, m := range blocks {
		k := int(m.count)
		m.off += s.size
		s.index.addBlock(t, m, recs[:k], seq, numbered)
		recs, seq = recs[k:], seq+uint64(k)
	}
	s.size += int64(len(b))
	return len(blocks), nil
}

// readPayload reads one committed block's payload into buf, which must
// hold m.payloadLen bytes (a store block buffer, store.GrowBlockBuf), and
// re-verifies its checksum against the indexed CRC.
func (s *segment) readPayload(m blockMeta, buf []byte) ([]byte, error) {
	payload := buf[:m.payloadLen]
	if _, err := s.f.ReadAt(payload, m.off+store.FrameHeaderSize); err != nil {
		return nil, fmt.Errorf("tracedb: read block at %d: %w", m.off, err)
	}
	if err := store.CheckFrame(payload, m.crc); err != nil {
		return nil, fmt.Errorf("tracedb: block at %d: %w", m.off, err)
	}
	return payload, nil
}

// readBlock reads one committed block like readPayload and appends its
// records, decoded by br, to dst — only those q matches, when q is non-nil
// (see decodePayload).
func (s *segment) readBlock(m blockMeta, buf []byte, br *store.BlockReader, dst []store.Record, q *Query) ([]store.Record, error) {
	payload, err := s.readPayload(m, buf)
	if err != nil {
		return nil, err
	}
	recs, err := decodePayload(br, payload, dst, q)
	if err != nil {
		return nil, fmt.Errorf("tracedb: block at %d: %w", m.off, err)
	}
	return recs, nil
}
