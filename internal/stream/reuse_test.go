package stream_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/wire"
)

// A snapshot replay reads each stored block into a buffer from a pool that
// every connection and iterator in the process shares, and the client
// decodes a block's strings into chunks shared across its records. These
// tests pin that neither shows through: every replay delivers exactly what
// the store holds, however many replays came before it or run beside it,
// and a record a caller keeps stays as it was delivered.

// reuseRecords builds n records with the mix of values a replay decodes:
// three devices, catalog and novel command names, up to four Args of novel
// strings (and, once in a while, forty of them), run labels, novel
// responses and exceptions, and now and then a string too long to share a
// chunk. Times are built as the store decodes them, so a staged record
// compares equal to one read back from a block.
func reuseRecords(n int) []store.Record {
	devices := []struct{ dev, name string }{{"C9", "MVNG"}, {"UR3e", "move_joints"}, {"IKA", "IN_PV_4"}}
	recs := make([]store.Record, n)
	for i := range recs {
		d := devices[i%len(devices)]
		start := time.Unix(1_633_105_800+int64(i), int64(i%1000)*1000)
		r := store.Record{Time: start, Device: d.dev, Name: d.name, Procedure: "P2", Mode: "REMOTE"}
		if i%5 != 0 {
			r.EndTime = start.Add(time.Duration(i%7+1) * time.Millisecond)
		}
		for a := 0; a < i%5; a++ {
			r.Args = append(r.Args, fmt.Sprintf("%d.%d", i, a))
		}
		switch {
		case i%997 == 0:
			r.Args = make([]string, 40)
			for a := range r.Args {
				r.Args[a] = fmt.Sprint(a)
			}
		case i%499 == 0:
			r.Response = strings.Repeat(fmt.Sprint(i), 200)
		case i%3 == 0:
			r.Response = "ok"
		default:
			r.Response = fmt.Sprintf("pos=%d", i)
		}
		if i%11 == 0 {
			r.Exception = fmt.Sprintf("timeout after %d ms", i%100)
		}
		if i%4 != 0 {
			r.Run = fmt.Sprintf("run-%d", i/800)
		}
		recs[i] = r
	}
	return recs
}

// reuseStores opens the stores a replay reads in practice, each holding
// recs: blocks of 256 records (radmiddlebox's default, each block under
// the wire's small-frame size), blocks of 4096 (a bulk load, well above
// it), and small blocks compacted into ones of ~64 KiB. The first two keep
// a staged tail that goes record by record.
func reuseStores(t *testing.T, recs []store.Record) map[string]*tracedb.DB {
	t.Helper()
	open := func(opts tracedb.Options) *tracedb.DB {
		db, err := tracedb.Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	perRecord := open(tracedb.Options{})
	for _, r := range recs {
		if err := perRecord.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	bulk := open(tracedb.Options{})
	whole := len(recs) / 4096 * 4096
	for off := 0; off < whole; off += 4096 {
		if err := bulk.AppendBatch(recs[off : off+4096]); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range recs[whole:] {
		if err := bulk.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	compacted := open(tracedb.Options{SegmentBytes: 64 << 10})
	for i, r := range recs {
		if err := compacted.Append(r); err != nil {
			t.Fatal(err)
		}
		if (i+1)%16 == 0 || i == len(recs)-1 {
			if err := compacted.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st, err := compacted.Compact(); err != nil || st.Compactions == 0 {
		t.Fatalf("compact: %+v, %v", st, err)
	}
	return map[string]*tracedb.DB{"256-record blocks": perRecord, "4096-record blocks": bulk, "compacted": compacted}
}

// replayKeep replays sub's snapshot and returns a copy of every record, each
// kept while the later Recvs of the replay reuse the client's record and
// buffers.
func replayKeep(addr string, sub wire.Subscribe) ([]store.Record, error) {
	sub.Policy = wire.PolicyBlock
	client, err := stream.Dial(addr, sub)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	client.SetIdleTimeout(10 * time.Second)
	var kept []store.Record
	for {
		ev, err := client.Recv()
		if err != nil {
			return kept, fmt.Errorf("recv after %d records: %w", len(kept), err)
		}
		switch ev.Kind {
		case wire.EventSnapshotEnd:
			return kept, nil
		case wire.EventTrace:
			kept = append(kept, *ev.Record)
		}
	}
}

// sameRecords compares got with want field by field.
func sameRecords(got, want []store.Record) error {
	if len(got) != len(want) {
		return fmt.Errorf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("record %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestReplayReuseKeepsRecords replays each store back to back, four times
// at once, filtered to one device, and resumed from inside a block, all on
// one server. Every replay must deliver exactly Collect's records, which
// must be the records appended, and the copies kept from every replay are
// compared only once all of them are done: by then each pooled buffer has
// passed through several connections and iterators, and each client has
// decoded thousands of records after the ones kept. (Collect decodes as
// the client does, so it is checked against the records appended too.)
func TestReplayReuseKeepsRecords(t *testing.T) {
	recs := reuseRecords(10_000)
	for i := range recs {
		recs[i].Seq = uint64(i)
	}
	for name, db := range reuseStores(t, recs) {
		t.Run(name, func(t *testing.T) {
			broker := stream.NewBroker()
			t.Cleanup(broker.Close)
			_, addr := startServer(t, broker, db)
			const resumeFrom = 5_000
			cases := []struct {
				name string
				sub  wire.Subscribe
				q    tracedb.Query
			}{
				{"back to back 1", wire.Subscribe{Snapshot: true}, tracedb.Query{}},
				{"back to back 2", wire.Subscribe{Snapshot: true}, tracedb.Query{}},
				{"back to back 3", wire.Subscribe{Snapshot: true}, tracedb.Query{}},
				{"device filter", wire.Subscribe{Snapshot: true, Device: "UR3e"}, tracedb.Query{Device: "UR3e"}},
				{"resume", wire.Subscribe{ResumeFrom: resumeFrom}, tracedb.Query{MinSeq: resumeFrom}},
				{"concurrent 1", wire.Subscribe{Snapshot: true}, tracedb.Query{}},
				{"concurrent 2", wire.Subscribe{Snapshot: true}, tracedb.Query{}},
				{"concurrent 3", wire.Subscribe{Snapshot: true}, tracedb.Query{}},
				{"concurrent 4", wire.Subscribe{Snapshot: true}, tracedb.Query{}},
			}
			kept := make([][]store.Record, len(cases))
			errs := make([]error, len(cases))
			var concurrent sync.WaitGroup
			for i, tc := range cases {
				if !strings.HasPrefix(tc.name, "concurrent") {
					kept[i], errs[i] = replayKeep(addr, tc.sub)
					continue
				}
				concurrent.Add(1)
				go func(i int, sub wire.Subscribe) {
					defer concurrent.Done()
					kept[i], errs[i] = replayKeep(addr, sub)
				}(i, tc.sub)
			}
			concurrent.Wait()
			for i, tc := range cases {
				if errs[i] != nil {
					t.Fatalf("%s: %v", tc.name, errs[i])
				}
				want, err := db.Collect(tc.q)
				if err != nil {
					t.Fatal(err)
				}
				var appended []store.Record
				for _, r := range recs {
					if tc.q.Match(r) {
						appended = append(appended, r)
					}
				}
				if len(want) == 0 || len(want) == len(recs) && tc.q != (tracedb.Query{}) {
					t.Fatalf("%s: the store holds %d matching records", tc.name, len(want))
				}
				if err := sameRecords(want, appended); err != nil {
					t.Fatalf("%s: Collect: %v", tc.name, err)
				}
				if err := sameRecords(kept[i], want); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			}
		})
	}
}
