package rad_test

// The paper's tables from the store the serving path wrote. RATracer fills
// one store and the analysis scripts read RAD back from it; here a seeded
// campaign is uploaded record by record through DIRECT trace uploads to
// the middlebox deployment radmiddlebox serves (deploy.Start), read back
// twice — by snapshot replay from its stream listener, and from its
// tracedb directory after shutdown — and every paper table rendered from
// either copy must be byte-identical to the in-memory campaign's.

import (
	"slices"
	"testing"
	"time"

	"rad/internal/deploy"
	"rad/internal/experiments"
	dataset "rad/internal/rad"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/tracer"
	"rad/internal/wire"
)

func TestPaperTablesFromServedStore(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and uploads a campaign")
	}
	ds, err := dataset.Generate(dataset.Config{Seed: 11, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	want := ds.Store.All()
	wantTables := paperTables(t, ds)

	dir := t.TempDir()
	mbox, err := deploy.Start(deploy.Config{Listen: "127.0.0.1:0", StoreDir: dir, StreamAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}

	lab, err := tracer.DialTCP(mbox.Addrs.Exec)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range want {
		reply, err := lab.RoundTrip(wire.Request{
			Op: wire.OpTrace, Device: r.Device, Name: r.Name, Args: r.Args,
			Value: r.Response, Error: r.Exception,
			StartNanos: r.Time.UnixNano(), EndNanos: r.EndTime.UnixNano(),
			Procedure: r.Procedure, Run: r.Run,
		})
		if err != nil || reply.Error != "" {
			t.Fatalf("upload %d: %v %s", i, err, reply.Error)
		}
	}
	lab.Close()

	// Read back 1: snapshot replay over the wire, up to the snapshot's end.
	sub, err := stream.Dial(mbox.Addrs.Stream, wire.Subscribe{Name: "roundtrip", Snapshot: true, Policy: wire.PolicyBlock})
	if err != nil {
		t.Fatal(err)
	}
	var replayed []store.Record
	deadline := time.Now().Add(time.Minute)
	for {
		ev, err := sub.Recv()
		if err != nil {
			t.Fatalf("snapshot replay after %d records: %v", len(replayed), err)
		}
		if ev.Kind == wire.EventSnapshotEnd {
			break
		}
		if ev.Kind == wire.EventTrace {
			replayed = append(replayed, *ev.Record)
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot replay never ended")
		}
	}
	sub.Close()
	if err := mbox.Close(); err != nil {
		t.Fatal(err)
	}

	// Read back 2: the store directory, as radbench -from reads it.
	stored, err := tracedb.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}

	for _, back := range []struct {
		how  string
		recs []store.Record
	}{{"snapshot replay", replayed}, {"store directory", stored}} {
		checkUploaded(t, back.how, back.recs, want)
		loaded, err := dataset.FromRecords(back.recs)
		if err != nil {
			t.Fatalf("%s: %v", back.how, err)
		}
		got := paperTables(t, loaded)
		for i, name := range []string{"Fig. 5(a)", "Fig. 5(b)", "Fig. 6", "Table I", "RQ1"} {
			if got[i] != wantTables[i] {
				t.Errorf("%s: %s differs from the in-memory render:\n%s\nin memory:\n%s",
					back.how, name, got[i], wantTables[i])
			}
		}
	}
}

// checkUploaded fails t unless got holds the uploaded records, in order and
// field by field. Mode is the one field that does not survive: the
// middlebox stamps every upload DIRECT. At least one uploaded record was
// traced REMOTE, so equal tables show that no table reads Mode.
func checkUploaded(t *testing.T, how string, got, want []store.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", how, len(got), len(want))
	}
	remote := 0
	for i := range want {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || !g.Time.Equal(w.Time) || !g.EndTime.Equal(w.EndTime) ||
			g.Device != w.Device || g.Name != w.Name || !slices.Equal(g.Args, w.Args) ||
			g.Response != w.Response || g.Exception != w.Exception ||
			g.Procedure != w.Procedure || g.Run != w.Run || g.Mode != "DIRECT" {
			t.Fatalf("%s: record %d\n got  %+v\n want %+v", how, i, g, w)
		}
		if w.Mode != "DIRECT" {
			remote++
		}
	}
	if remote == 0 {
		t.Fatalf("%s: every record was traced DIRECT, so the tables cannot show that Mode is unread", how)
	}
}

// paperTables renders Fig. 5(a), Fig. 5(b), Fig. 6, Table I and RQ1 from
// ds, as radbench prints them.
func paperTables(t *testing.T, ds *dataset.Dataset) []string {
	t.Helper()
	rq1, err := experiments.RQ1Classification(ds)
	if err != nil {
		t.Fatal(err)
	}
	return []string{
		experiments.RenderFig5a(experiments.Fig5aCommandDistribution(ds)),
		experiments.RenderFig5b(experiments.Fig5bTopNGrams(ds, nil, 10)),
		experiments.RenderFig6(experiments.Fig6SimilarityMatrix(ds)),
		experiments.RenderTableI(experiments.TableIPerplexityIDS(ds, experiments.TableIConfig{})),
		experiments.RenderRQ1(rq1),
	}
}
