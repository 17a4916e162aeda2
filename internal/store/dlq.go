package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DeadLetterQueue is a disk-backed spill area for trace batches a primary
// sink refused: each failed batch lands durably as its own spill file, one
// frame (AppendFrame) holding the batch as a block, and Drain re-ingests
// the files in spill order once the primary recovers. Together with
// FailoverSink it is the middlebox's guarantee that an accepted record
// survives a flaky store.
type DeadLetterQueue struct {
	dir string

	mu   sync.Mutex
	next int // next spill file id

	spilledBatches atomic.Uint64
	spilledRecords atomic.Uint64

	// Drain/Reingest outcome accounting: recoveries were invisible in the
	// metrics while spills were counted, so a fleet operator could see
	// records leave the primary but never see them come back.
	drainedBatches atomic.Uint64
	drainedRecords atomic.Uint64
	drainErrors    atomic.Uint64
}

const (
	dlqPrefix = "dlq-"
	dlqSuffix = ".blk"
	// legacySuffix ends an older build's JSONL spills, which Pending refuses.
	legacySuffix = ".jsonl"
)

// OpenDLQ opens (or creates) a dead-letter directory. Spill numbering
// resumes after the highest existing spill file, so a re-opened queue
// never overwrites pending dead letters. A JSONL spill left by an older
// build fails the open with its name, so no dead letter is skipped.
func OpenDLQ(dir string) (*DeadLetterQueue, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dlq: %w", err)
	}
	q := &DeadLetterQueue{dir: dir}
	files, err := q.Pending()
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if id, ok := parseSpillID(filepath.Base(f)); ok && id >= q.next {
			q.next = id + 1
		}
	}
	return q, nil
}

func spillName(id int) string { return fmt.Sprintf("%s%06d%s", dlqPrefix, id, dlqSuffix) }

func parseSpillID(name string) (int, bool) {
	if !strings.HasPrefix(name, dlqPrefix) || !strings.HasSuffix(name, dlqSuffix) {
		return 0, false
	}
	id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, dlqPrefix), dlqSuffix))
	if err != nil || id < 0 {
		return 0, false
	}
	return id, true
}

// Spill persists one failed batch as a new spill file.
func (q *DeadLetterQueue) Spill(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	frame := AppendFrame(nil, recs)
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := WriteFileAtomic(filepath.Join(q.dir, spillName(q.next)), frame); err != nil {
		return fmt.Errorf("dlq: spill: %w", err)
	}
	q.next++
	q.spilledBatches.Add(1)
	q.spilledRecords.Add(uint64(len(recs)))
	return nil
}

// Pending returns the queue's spill files, oldest first. A JSONL spill of
// an older build is an error naming it.
func (q *DeadLetterQueue) Pending() ([]string, error) {
	entries, err := os.ReadDir(q.dir)
	if err != nil {
		return nil, fmt.Errorf("dlq: %w", err)
	}
	type spill struct {
		id   int
		path string
	}
	var spills []spill
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasPrefix(name, dlqPrefix) && strings.HasSuffix(name, legacySuffix) {
			return nil, fmt.Errorf("dlq: %s is a JSONL spill of an older build, which this build cannot read: re-ingest it with that build",
				filepath.Join(q.dir, name))
		}
		if id, ok := parseSpillID(name); ok {
			spills = append(spills, spill{id, filepath.Join(q.dir, name)})
		}
	}
	sort.Slice(spills, func(i, j int) bool { return spills[i].id < spills[j].id })
	paths := make([]string, len(spills))
	for i, s := range spills {
		paths[i] = s.path
	}
	return paths, nil
}

// Drain re-ingests every pending spill, oldest first: each file's batch is
// handed to fn and the file is deleted only after fn succeeds, so a crash
// mid-drain re-delivers (at-least-once) rather than loses. It returns the
// number of records re-ingested; on error, already-drained files stay
// deleted and the failing spill, named in the error, remains pending — a
// spill that fails its frame check too, so none is skipped.
func (q *DeadLetterQueue) Drain(fn func(recs []Record) error) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	files, err := q.Pending()
	if err != nil {
		q.drainErrors.Add(1)
		return 0, err
	}
	total := 0
	for _, path := range files {
		recs, err := readSpill(path)
		if err == nil {
			err = fn(recs)
		}
		if err == nil {
			err = os.Remove(path)
		}
		if err != nil {
			q.drainErrors.Add(1)
			return total, fmt.Errorf("dlq: drain %s: %w", path, err)
		}
		total += len(recs)
		q.drainedBatches.Add(1)
		q.drainedRecords.Add(uint64(len(recs)))
	}
	return total, nil
}

// readSpill reads the batch of one spill file, which must be exactly one
// frame whose payload passes its checksum and decodes as a block.
func readSpill(path string) ([]Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	n, crc, err := ParseFrameHeader(b)
	if err != nil {
		return nil, err
	}
	if len(b) != FrameHeaderSize+n {
		return nil, ErrCorruptFrame
	}
	payload := b[FrameHeaderSize:]
	if err := CheckFrame(payload, crc); err != nil {
		return nil, err
	}
	var br BlockReader
	if err := br.Reset(payload); err != nil {
		return nil, err
	}
	recs := make([]Record, br.Len())
	for i := range recs {
		if err := br.Next(&recs[i]); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// DLQStats counts what the queue has absorbed — and given back — since it
// was opened.
type DLQStats struct {
	SpilledBatches uint64
	SpilledRecords uint64
	// Recoveries: spill files successfully re-ingested by Drain (which also
	// backs tracedb.Reingest), and drain attempts that failed partway.
	DrainedBatches uint64
	DrainedRecords uint64
	DrainErrors    uint64
}

// Stats snapshots the spill and drain counters (this process's activity
// only; pending files from an earlier run are visible through Pending, not
// here).
func (q *DeadLetterQueue) Stats() DLQStats {
	return DLQStats{
		SpilledBatches: q.spilledBatches.Load(),
		SpilledRecords: q.spilledRecords.Load(),
		DrainedBatches: q.drainedBatches.Load(),
		DrainedRecords: q.drainedRecords.Load(),
		DrainErrors:    q.drainErrors.Load(),
	}
}

// ValidTenantID reports whether id is usable as a tenant namespace: 1–64
// bytes of [A-Za-z0-9._-], with "." and ".." rejected. The alphabet is
// path-safe by construction (no separators, no traversal), so a tenant ID
// arriving off the wire can name a DLQ subdirectory without sanitization.
func ValidTenantID(id string) bool {
	if len(id) == 0 || len(id) > 64 || id == "." || id == ".." {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// OpenTenantDLQ opens tenant's dead-letter directory under root
// (root/tenants/<id>), validating the ID so a wire-supplied tenant can
// never escape the root. Every tenant spills into its own namespace;
// draining one tenant never touches another's dead letters.
func OpenTenantDLQ(root, tenant string) (*DeadLetterQueue, error) {
	if !ValidTenantID(tenant) {
		return nil, fmt.Errorf("dlq: invalid tenant id %q", tenant)
	}
	return OpenDLQ(filepath.Join(root, "tenants", tenant))
}

// WriteFileAtomic replaces path with data durably: it writes path+".tmp",
// syncs it, renames it over path and syncs the directory, so a crash or a
// power loss leaves either the old file or the whole new one.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	SyncDir(filepath.Dir(path))
	return nil
}

// SyncDir fsyncs a directory so a just-renamed file survives power loss;
// errors are ignored (the rename itself is already atomic on crash-free
// filesystems, and recovery tolerates a missing file).
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
