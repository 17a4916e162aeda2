package rad

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"rad/internal/device"
	"rad/internal/procedure"
	"rad/internal/store"
)

// smallDataset generates a scaled-down campaign shared by the tests in this
// file (generation is the expensive part).
var smallDataset *Dataset

func dataset(t *testing.T) *Dataset {
	t.Helper()
	if smallDataset == nil {
		ds, err := Generate(Config{Seed: 7, Scale: 0.2})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		smallDataset = ds
	}
	return smallDataset
}

func TestGenerateSupervisedStructure(t *testing.T) {
	ds := dataset(t)
	if len(ds.Runs) != NumSupervisedRuns {
		t.Fatalf("%d runs, want %d", len(ds.Runs), NumSupervisedRuns)
	}
	wantProc := func(id int) string {
		switch {
		case id <= 11:
			return procedure.Joystick
		case id <= 16:
			return procedure.P1
		case id <= 20:
			return procedure.P2
		default:
			return procedure.P3
		}
	}
	for i, run := range ds.Runs {
		if run.ID != i {
			t.Errorf("run %d has ID %d", i, run.ID)
		}
		if run.Procedure != wantProc(i) {
			t.Errorf("run %d procedure = %s, want %s", i, run.Procedure, wantProc(i))
		}
	}
	// Exactly runs 16, 17, 22 are anomalous.
	for i, run := range ds.Runs {
		wantAnom := i == 16 || i == 17 || i == 22
		if run.Anomalous != wantAnom {
			t.Errorf("run %d anomalous = %v, want %v", i, run.Anomalous, wantAnom)
		}
	}
}

func TestPerDeviceTotalsMatchScaledTargets(t *testing.T) {
	ds := dataset(t)
	counts := ds.Store.CountByDevice()
	// At scale 0.2 every scaled target exceeds the supervised + structured
	// output, so the top-up fill must land exactly on it (as it does for the
	// paper's totals at scale 1).
	for dev, want := range ds.Targets {
		if got := counts[dev]; got != want {
			t.Errorf("%s: %d trace objects, want exactly %d", dev, got, want)
		}
	}
	total := 0
	for _, dev := range device.Names() {
		total += counts[dev]
	}
	if want := TotalTraceObjects / 5; total < want-3 || total > want+3 {
		t.Errorf("total %d, want ≈%d (rounding across five devices)", total, want)
	}
}

func TestRun17And18TruncatedSimilarly(t *testing.T) {
	ds := dataset(t)
	len17 := ds.Runs[17].Commands
	len18 := ds.Runs[18].Commands
	full := ds.Runs[19].Commands
	// Run 18 stops silently at ~10%; run 17 crashes at ~10% and then carries
	// the operator's recovery session, so it is longer but still well short
	// of a complete P2.
	if len18 > full/4 {
		t.Errorf("run 18 (%d commands) should stop ~10%% into a full P2 (%d commands)", len18, full)
	}
	if len17 >= full*3/4 {
		t.Errorf("run 17 (%d commands) should remain well below a full P2 (%d commands)", len17, full)
	}
	if len18 == 0 || len17 == 0 {
		t.Error("truncated runs must still issue commands")
	}
}

func TestRun12ContainsNoDosingCommands(t *testing.T) {
	ds := dataset(t)
	for _, name := range ds.RunSequence("run-12") {
		if name == "start_dosing" || name == "target_mass" {
			t.Fatalf("run 12 contains %s; it stopped before dosing", name)
		}
	}
	seq := ds.RunSequence("run-12")
	armMvng := 0
	for _, n := range seq {
		if n == "ARM" || n == "MVNG" {
			armMvng++
		}
	}
	if frac := float64(armMvng) / float64(len(seq)); frac < 0.5 {
		t.Errorf("run 12 ARM+MVNG fraction %v, want joystick-like", frac)
	}
}

func TestAnomalousRunsCarryExceptions(t *testing.T) {
	ds := dataset(t)
	for _, id := range []int{16, 17, 22} {
		run := ds.Runs[id]
		recs := ds.Store.ByRun(run.Run)
		found := false
		for _, r := range recs {
			if r.Exception != "" {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("anomalous run %d has no exception in its trace", id)
		}
	}
}

func TestRun22CrashesAtTheEnd(t *testing.T) {
	ds := dataset(t)
	// Run 22 should execute almost all of a complete P3 (runs 21/23/24).
	complete := (ds.Runs[21].Commands + ds.Runs[23].Commands + ds.Runs[24].Commands) / 3
	if got := ds.Runs[22].Commands; got < complete*3/4 {
		t.Errorf("run 22 issued %d commands, want near a complete P3 (%d)", got, complete)
	}
}

func TestPowerCapturedForP2Runs(t *testing.T) {
	ds := dataset(t)
	for _, id := range []int{17, 18, 19, 20} {
		run := ds.Runs[id]
		if len(ds.PowerByRun[run.Run]) == 0 {
			t.Errorf("no power samples for P2 %s", run.Run)
		}
	}
	if len(ds.PowerByRun) != 4 {
		t.Errorf("power captured for %d runs, want 4", len(ds.PowerByRun))
	}
}

func TestSupervisedSequencesShape(t *testing.T) {
	ds := dataset(t)
	seqs, anom := ds.SupervisedSequences()
	if len(seqs) != 25 || len(anom) != 25 {
		t.Fatalf("got %d/%d sequences/labels", len(seqs), len(anom))
	}
	nAnom := 0
	for i, a := range anom {
		if a {
			nAnom++
		}
		if len(seqs[i]) == 0 {
			t.Errorf("run %d has empty sequence", i)
		}
	}
	if nAnom != 3 {
		t.Errorf("%d anomalies in labels", nAnom)
	}
}

func TestCommandDistributionCoversCatalogOnly(t *testing.T) {
	ds := dataset(t)
	dist := ds.CommandDistribution()
	if len(dist) != 52 {
		t.Fatalf("distribution has %d entries, want 52", len(dist))
	}
	total := 0
	for _, cc := range dist {
		total += cc.Count
	}
	if total != ds.Store.Len() {
		t.Errorf("distribution total %d != store %d", total, ds.Store.Len())
	}
}

func TestUnsupervisedLabelledUnknown(t *testing.T) {
	ds := dataset(t)
	unknown := len(ds.Store.ByProcedure(store.UnknownProcedure))
	supervised := 0
	for _, run := range ds.Runs {
		supervised += run.Commands
	}
	if unknown == 0 {
		t.Fatal("no unknown-procedure records")
	}
	// Known labels + unknown + crash-epilogue commands should cover the store.
	if unknown+supervised > ds.Store.Len() {
		t.Errorf("label accounting: unknown %d + supervised %d > total %d",
			unknown, supervised, ds.Store.Len())
	}
}

func TestDeviceTargetsSumToTotal(t *testing.T) {
	sum := 0
	for _, n := range DeviceTargets() {
		sum += n
	}
	if sum != TotalTraceObjects {
		t.Fatalf("targets sum to %d, want %d", sum, TotalTraceObjects)
	}
}

// TestCampaignSpansThreeMonths asserts the §IV collection-period claim at
// full scale: the campaign covers roughly three months of virtual lab time.
func TestCampaignSpansThreeMonths(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation")
	}
	ds, err := Generate(Config{Seed: 42, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs := ds.Store.All()
	first, last := recs[0].Time, recs[0].Time
	for _, r := range recs {
		if r.Time.Before(first) {
			first = r.Time
		}
		if r.Time.After(last) {
			last = r.Time
		}
	}
	if days := last.Sub(first).Hours() / 24; days < 70 || days > 110 {
		t.Errorf("campaign spans %.1f days (%s → %s), want ≈90 (a three-month period)",
			days, first.Format("2006-01-02"), last.Format("2006-01-02"))
	}
}

// exportHash hashes the dataset's full CSV and JSONL exports — the bytes a
// user of radgen would actually receive.
func exportHash(t *testing.T, ds *Dataset) string {
	t.Helper()
	h := sha256.New()
	var buf bytes.Buffer
	if err := export(store.NewCSVWriter(&buf), ds.Store.All()); err != nil {
		t.Fatalf("CSV export: %v", err)
	}
	h.Write(buf.Bytes())
	buf.Reset()
	if err := export(store.NewJSONLWriter(&buf), ds.Store.All()); err != nil {
		t.Fatalf("JSONL export: %v", err)
	}
	h.Write(buf.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}

// export writes recs through an export writer, one Append each, then
// flushes it.
func export(w interface {
	Append(store.Record) error
	Flush() error
}, recs []store.Record) error {
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			return err
		}
	}
	return w.Flush()
}

// TestGenerateParallelDeterministic is the regression test for the canonical
// ordering guarantee: the same Config must produce byte-identical CSV/JSONL
// exports whether generation runs on one worker under GOMAXPROCS=1 or on
// many workers under all CPUs.
func TestGenerateParallelDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Scale: 0.05}

	prev := runtime.GOMAXPROCS(1)
	cfg.Workers = 1
	serial, err := Generate(cfg)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	want := exportHash(t, serial)

	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Store.Len() != serial.Store.Len() {
			t.Fatalf("workers=%d produced %d records, serial produced %d",
				workers, ds.Store.Len(), serial.Store.Len())
		}
		if got := exportHash(t, ds); got != want {
			t.Errorf("workers=%d export hash %s, want %s (serial)", workers, got, want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Seed: 3, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Seed: 3, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.AllSequence(), b.AllSequence()
	if len(sa) != len(sb) {
		t.Fatalf("lengths differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("sequence diverges at %d", i)
		}
	}
}
