package rad_test

// Query parity between the two trace stores: a campaign ingested into both
// the in-memory MemStore and the persistent tracedb must answer every
// supported query shape identically. MemStore is the reference semantics
// (brute-force filter over insertion order); tracedb answers the same
// queries from its on-disk segments and indexes.

import (
	"reflect"
	"testing"

	"rad"
)

func sameTraceRecords(t *testing.T, shape string, got, want []rad.TraceRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d records, want %d", shape, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Seq != w.Seq ||
			g.Time.UnixNano() != w.Time.UnixNano() ||
			g.EndTime.UnixNano() != w.EndTime.UnixNano() ||
			g.Device != w.Device || g.Name != w.Name ||
			!reflect.DeepEqual(g.Args, w.Args) ||
			g.Response != w.Response || g.Exception != w.Exception ||
			g.Procedure != w.Procedure || g.Run != w.Run || g.Mode != w.Mode {
			t.Fatalf("%s: record %d mismatch:\n got  %+v\n want %+v", shape, i, g, w)
		}
	}
}

func TestTraceDBQueryParityWithMemStore(t *testing.T) {
	ds, err := rad.GenerateDataset(rad.GenerateConfig{Seed: 11, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	mem := ds.Store
	recs := mem.All()

	db, err := rad.OpenTraceDB(t.TempDir(), rad.TraceDBOptions{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Ingest per record, tracedb.DefaultBlockRecords staged records to a
	// block.
	for _, r := range recs {
		if err := db.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.Len() != mem.Len() {
		t.Fatalf("tracedb has %d records, memstore %d", db.Len(), mem.Len())
	}

	// Every supported query shape, including combinations.
	n := len(recs)
	shapes := map[string]rad.TraceQuery{
		"full-scan":        {},
		"per-device":       {Device: rad.DeviceC9},
		"per-device-rare":  {Device: rad.DeviceQuantos},
		"per-command-type": {Key: "Tecan.Q"},
		"per-command-rare": {Key: "Quantos.start_dosing"},
		"per-procedure":    {Procedure: rad.ProcedureP2},
		"unknown-proc":     {Procedure: rad.UnknownProcedure},
		"time-range":       {From: recs[n/3].Time, To: recs[2*n/3].Time},
		"time-open-start":  {To: recs[n/4].Time},
		"time-open-end":    {From: recs[3*n/4].Time},
		"combined":         {From: recs[n/5].Time, To: recs[4*n/5].Time, Device: rad.DeviceC9},
		"no-match":         {Device: "Krios"},
	}
	for _, run := range mem.Runs() {
		shapes["per-run-"+run] = rad.TraceQuery{Run: run}
	}

	for shape, q := range shapes {
		want := mem.Filter(q.Match)
		got, err := db.Collect(q)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		sameTraceRecords(t, shape, got, want)

		// The iterator must yield the same sequence as Collect.
		var scanned []rad.TraceRecord
		it := db.Scan(q)
		for it.Next() {
			scanned = append(scanned, it.Record())
		}
		if it.Err() != nil {
			t.Fatalf("%s: scan: %v", shape, it.Err())
		}
		sameTraceRecords(t, shape+"/scan", scanned, want)
	}

	// The run list, answered from the index, matches the reference store.
	if got, want := db.Runs(), mem.Runs(); !reflect.DeepEqual(got, want) {
		t.Errorf("Runs diverges: %v vs %v", got, want)
	}
}
