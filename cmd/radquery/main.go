// Command radquery answers the analyses' query shapes straight from a
// persisted tracedb directory — no regeneration, no full-campaign rescan.
// It is the read side of the paper's MongoDB substitution: where RATracer's
// users query the document store for per-device or per-run slices, radquery
// serves the same slices from the embedded store's segments and indexes.
//
// Usage:
//
//	radquery -store DIR [-mode info|count|runs|scan|compact] [filters]
//
// Modes:
//
//	info     store summary: segments, records, time span, runs, and the
//	         storage-lifecycle state — live vs reclaimable bytes, the
//	         block-size distribution, the retention horizon (default)
//	count    records per group (-by command|device|run|procedure)
//	runs     the distinct supervised run identifiers
//	scan     stream matching records (-format jsonl|csv), e.g. the per-run
//	         extraction feeding RQ1/Table I
//	compact  run the storage lifecycle by hand: compact fragmented
//	         segments, and apply -retain-age/-retain-bytes when set
//
// Filters (scan and every count grouping): -device, -key, -proc, -run,
// -from/-to (RFC 3339); -limit caps a scan.
//
// -explain prints the selectivity planner's decision for a scan query —
// which posting list drives, how many blocks are read versus provably
// fully-covered — instead of executing it.
//
// A running middlebox's live feed is radwatch's: radwatch -snapshot
// -format jsonl|csv takes the same filters and -limit, replays the
// matching records already stored, then follows new ones as they commit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"rad/internal/store"
	"rad/internal/tracedb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "radquery:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("radquery", flag.ContinueOnError)
	storeDir := fs.String("store", "", "tracedb directory (required)")
	mode := fs.String("mode", "info", "info, count, runs, scan, or compact")
	by := fs.String("by", "command", "count grouping: command, device, run, or procedure")
	device := fs.String("device", "", "filter: device name")
	key := fs.String("key", "", "filter: command type (Device.Name)")
	proc := fs.String("proc", "", "filter: procedure label")
	runLabel := fs.String("run", "", "filter: supervised run identifier")
	from := fs.String("from", "", "filter: earliest Record.Time, RFC 3339")
	to := fs.String("to", "", "filter: latest Record.Time, RFC 3339")
	limit := fs.Int("limit", 0, "scan: stop after N records (0 = all)")
	format := fs.String("format", "jsonl", "scan output: jsonl or csv")
	explain := fs.Bool("explain", false, "scan: print the query plan instead of the records")
	retainAge := fs.Duration("retain-age", 0, "compact: also retire sealed segments older than this")
	retainBytes := fs.Int64("retain-bytes", 0, "compact: also retire oldest sealed segments past this byte budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("-store is required")
	}

	q := tracedb.Query{Device: *device, Key: *key, Procedure: *proc, Run: *runLabel}
	var err error
	if q.From, err = parseTime(*from); err != nil {
		return fmt.Errorf("-from: %w", err)
	}
	if q.To, err = parseTime(*to); err != nil {
		return fmt.Errorf("-to: %w", err)
	}

	db, err := tracedb.OpenExisting(*storeDir, tracedb.Options{
		Lifecycle: tracedb.LifecycleOptions{RetainMaxAge: *retainAge, RetainMaxBytes: *retainBytes},
	})
	if err != nil {
		return err
	}
	defer db.Close()

	switch *mode {
	case "info":
		return printInfo(out, db)
	case "count":
		return printCounts(out, db, *by, q)
	case "runs":
		for _, r := range db.Runs() {
			fmt.Fprintln(out, r)
		}
		return nil
	case "scan":
		if *explain {
			return printExplain(out, db, q)
		}
		return printScan(out, db, q, *limit, *format)
	case "compact":
		return runCompact(out, db, *retainAge > 0 || *retainBytes > 0)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

// runCompact is -mode compact: the manual lifecycle trigger. Retention (when
// a policy flag is set) runs first to free whole segments, then compaction
// densifies what remains.
func runCompact(out io.Writer, db *tracedb.DB, retain bool) error {
	if retain {
		rs, err := db.Retain()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "retained: %d segments retired, %d records dropped, %d bytes reclaimed\n",
			rs.SegmentsRetired, rs.RecordsDropped, rs.BytesReclaimed)
	}
	cs, err := db.Compact()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "compacted: %d steps, %d segments -> %d, %d blocks -> %d, %d records, %d bytes -> %d\n",
		cs.Compactions, cs.SegmentsIn, cs.SegmentsOut,
		cs.BlocksIn, cs.BlocksOut, cs.Records, cs.BytesIn, cs.BytesOut)
	return nil
}

// printExplain renders the selectivity planner's decision for q.
func printExplain(out io.Writer, db *tracedb.DB, q tracedb.Query) error {
	pl := db.Explain(q)
	fmt.Fprintf(out, "segments:  %d planned, %d pruned\n", pl.Segments-pl.SegmentsPruned, pl.SegmentsPruned)
	for _, field := range []string{"device", "key", "run", "procedure", "scan"} {
		if n := pl.Drivers[field]; n > 0 {
			fmt.Fprintf(out, "driver:    %s (%d segments)\n", field, n)
		}
	}
	for _, field := range []string{"device", "key", "run", "procedure"} {
		if n, ok := pl.FilterBlocks[field]; ok {
			fmt.Fprintf(out, "filter:    %-9s -> %d posting-list blocks\n", field, n)
		}
	}
	fmt.Fprintf(out, "blocks:    %d candidates of %d total, %d fully covered (no per-record re-filter)\n",
		pl.CandidateBlocks, pl.TotalBlocks, pl.CoveredBlocks)
	fmt.Fprintf(out, "records:   <= %d from blocks, %d staged\n", pl.CandidateRecords, pl.StagedTail)
	return nil
}

func parseTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	return time.Parse(time.RFC3339, s)
}

func printInfo(out io.Writer, db *tracedb.DB) error {
	fmt.Fprintf(out, "store:    %s\n", db.Dir())
	fmt.Fprintf(out, "segments: %d\n", db.Segments())
	fmt.Fprintf(out, "records:  %d\n", db.Len())
	if first, last, ok := db.Span(); ok {
		fmt.Fprintf(out, "span:     %s .. %s (%.1f days)\n",
			first.UTC().Format(time.RFC3339), last.UTC().Format(time.RFC3339),
			last.Sub(first).Hours()/24)
	}
	fmt.Fprintf(out, "runs:     %d supervised\n", len(db.Runs()))
	lc := db.Lifecycle()
	fmt.Fprintf(out, "bytes:    %d live, %d reclaimable (%d retired awaiting readers, %d past retention)\n",
		lc.LiveBytes, lc.RetiredBytes+lc.ExpiredBytes, lc.RetiredBytes, lc.ExpiredBytes)
	if lc.Blocks.Blocks > 0 {
		fmt.Fprintf(out, "blocks:   %d (payload min %d / avg %d / max %d bytes; %d fragmented)\n",
			lc.Blocks.Blocks, lc.Blocks.MinBytes, lc.Blocks.AvgBytes, lc.Blocks.MaxBytes, lc.Blocks.Fragmented)
	}
	if lc.CompactedSegments > 0 || lc.Compactions > 0 {
		fmt.Fprintf(out, "compact:  %d compacted segments live; %d compactions, %d blocks merged, %d bytes reclaimed\n",
			lc.CompactedSegments, lc.Compactions, lc.BlocksMerged, lc.BytesReclaimed)
	}
	if !lc.RetentionHorizon.IsZero() {
		fmt.Fprintf(out, "retain:   horizon %s; %d segments retired, %d records dropped so far\n",
			lc.RetentionHorizon.UTC().Format(time.RFC3339), lc.SegmentsRetired, lc.RecordsDropped)
	}
	return nil
}

// printCounts prints "count group" lines, largest first, over one scan of
// the records q matches. A record outside any supervised run counts toward
// no run.
func printCounts(out io.Writer, db *tracedb.DB, by string, q tracedb.Query) error {
	group, ok := map[string]func(*store.Record) string{
		"command":   func(r *store.Record) string { return r.Key() },
		"device":    func(r *store.Record) string { return r.Device },
		"run":       func(r *store.Record) string { return r.Run },
		"procedure": func(r *store.Record) string { return r.Procedure },
	}[by]
	if !ok {
		return fmt.Errorf("unknown -by %q", by)
	}
	counts := make(map[string]int)
	it := db.Scan(q)
	for it.Next() {
		if g := group(it.Ref()); g != "" || by != "run" {
			counts[g]++
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	groups := make([]string, 0, len(counts))
	for g := range counts {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		if counts[groups[i]] != counts[groups[j]] {
			return counts[groups[i]] > counts[groups[j]]
		}
		return groups[i] < groups[j]
	})
	for _, g := range groups {
		fmt.Fprintf(out, "%8d  %s\n", counts[g], g)
	}
	return nil
}

func printScan(out io.Writer, db *tracedb.DB, q tracedb.Query, limit int, format string) error {
	var sink interface {
		Append(store.Record) error
		Flush() error
	}
	switch format {
	case "jsonl":
		sink = store.NewJSONLWriter(out)
	case "csv":
		sink = store.NewCSVWriter(out)
	default:
		return fmt.Errorf("unknown -format %q", format)
	}
	n := 0
	it := db.Scan(q)
	defer it.Close() // a -limit break abandons the snapshot early
	for it.Next() {
		if err := sink.Append(it.Record()); err != nil {
			return err
		}
		n++
		if limit > 0 && n >= limit {
			break
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	return sink.Flush()
}
