package rad_test

// Tests of the public facade: everything a downstream user touches, driven
// end to end through the exported API only.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"rad"
)

func TestPublicQuickstartFlow(t *testing.T) {
	lab, err := rad.NewVirtualLab(rad.VirtualLabConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()

	res := rad.RunSolubilityN9(lab.Lab, rad.ProcedureOptions{Run: "r", Solid: "CSTI", Vials: 1})
	if res.Err != nil {
		t.Fatalf("procedure: %v", res.Err)
	}
	recs := lab.Sink.ByRun("r")
	if len(recs) != res.Commands {
		t.Errorf("traced %d, result says %d", len(recs), res.Commands)
	}
	for _, r := range recs {
		if r.Procedure != rad.ProcedureP1 {
			t.Fatalf("record labelled %q", r.Procedure)
		}
	}
}

func TestPublicCatalogAndTargets(t *testing.T) {
	if got := len(rad.CommandCatalog()); got != 52 {
		t.Errorf("catalog has %d commands", got)
	}
	sum := 0
	for _, n := range rad.DeviceTargets() {
		sum += n
	}
	if sum != rad.TotalTraceObjects {
		t.Errorf("targets sum %d != %d", sum, rad.TotalTraceObjects)
	}
	if len(rad.PowerPropertyNames()) != 122 {
		t.Errorf("power schema size %d", len(rad.PowerPropertyNames()))
	}
}

func TestPublicTraceExportRoundTrip(t *testing.T) {
	lab, err := rad.NewVirtualLab(rad.VirtualLabConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	rad.RunJoystick(lab.Lab, rad.ProcedureOptions{Run: "j", Presses: 5})

	var csvBuf, jsonlBuf bytes.Buffer
	cw, jw := rad.NewCSVWriter(&csvBuf), rad.NewJSONLWriter(&jsonlBuf)
	for _, r := range lab.Sink.All() {
		if err := cw.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := jw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := rad.ReadTraceCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	fromJSONL, err := rad.ReadTraceJSONL(&jsonlBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCSV) != lab.Sink.Len() || len(fromJSONL) != lab.Sink.Len() {
		t.Errorf("round trip: csv %d, jsonl %d, store %d", len(fromCSV), len(fromJSONL), lab.Sink.Len())
	}
}

func TestPublicAnalysesCompose(t *testing.T) {
	seqs := [][]string{
		{"ARM", "MVNG", "ARM", "MVNG", "ARM", "MVNG"},
		{"Q", "A", "Q", "A", "Q"},
	}
	model := rad.TrainNGram(seqs, 2, 0.1)
	if p := model.Perplexity(seqs[0]); p <= 0 {
		t.Errorf("perplexity %v", p)
	}
	top := rad.TopNGrams(seqs, 2, 3)
	if len(top) != 3 {
		t.Errorf("top n-grams: %v", top)
	}
	m := rad.SimilarityMatrix(seqs)
	if m[0][1] > 0.2 {
		t.Errorf("disjoint runs similarity %v", m[0][1])
	}
	upper, _, ok := rad.JenksSplit2([]float64{1, 1.1, 0.9, 8, 8.2})
	if !ok || !upper[3] || upper[0] {
		t.Errorf("jenks split: %v %v", upper, ok)
	}
	box := rad.BoxStats([]float64{1, 2, 3, 4, 100})
	if len(box.Outliers) != 1 {
		t.Errorf("box outliers: %v", box.Outliers)
	}
	if r := rad.Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); r < 0.999 {
		t.Errorf("pearson %v", r)
	}
}

func TestPublicAttackScenario(t *testing.T) {
	out, err := rad.RunAttackScenario(rad.AttackScenario{
		Name:   "t",
		Attack: rad.AttackConfig{Kind: rad.AttackInjection, StartAfter: 10, Intensity: 0.5, Seed: 2},
		Seed:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Attacked() {
		t.Error("no attack events")
	}
	suite := rad.StandardAttackSuite(1)
	if len(suite) != 7 {
		t.Errorf("suite size %d", len(suite))
	}
}

func TestPublicAutoLabeler(t *testing.T) {
	joy := strings.Fields(strings.Repeat("ARM MVNG MVNG ", 20))
	sol := strings.Fields(strings.Repeat("Q A V target_mass ", 10))
	al, err := rad.NewAutoLabeler([][]string{joy, sol}, []string{"P4", "P1"})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC)
	var recs []rad.TraceRecord
	for i, name := range strings.Fields(strings.Repeat("ARM MVNG MVNG ", 6)) {
		at := t0.Add(time.Duration(i) * time.Second)
		recs = append(recs, rad.TraceRecord{Device: "C9", Name: name, Time: at, EndTime: at})
	}
	segs := al.Label(recs)
	if len(segs) != 1 || segs[0].Label != "P4" {
		t.Errorf("segments: %+v", segs)
	}
}

func TestPublicDatasetSmall(t *testing.T) {
	ds, err := rad.GenerateDataset(rad.GenerateConfig{Seed: 2, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Runs) != 25 {
		t.Errorf("%d supervised runs", len(ds.Runs))
	}
	dist := ds.CommandDistribution()
	if len(dist) != 52 {
		t.Errorf("distribution entries: %d", len(dist))
	}
}

func ExampleTrainPerplexityDetector() {
	benign := [][]string{
		{"ARM", "MVNG", "ARM", "MVNG", "ARM", "MVNG", "CURR", "MOVE", "MVNG", "ARM"},
		{"ARM", "MVNG", "MVNG", "ARM", "MVNG", "CURR", "MOVE", "MVNG", "ARM", "MVNG"},
	}
	det, _ := rad.TrainPerplexityDetector(benign, 2)
	weird := []string{"HOME", "OUTP", "BIAS", "HOME", "OUTP", "BIAS", "HOME", "OUTP"}
	fmt.Println(det.Anomalous(weird))
	// Output: true
}

func ExampleCosineSimilarity() {
	v := rad.FitTFIDF([][]string{{"ARM", "MVNG"}, {"Q", "A"}})
	a := v.Transform([]string{"ARM", "MVNG", "ARM"})
	b := v.Transform([]string{"ARM", "MVNG"})
	c := v.Transform([]string{"Q", "A", "Q"})
	fmt.Printf("related=%.2f unrelated=%.2f\n", rad.CosineSimilarity(a, b), rad.CosineSimilarity(a, c))
	// Output: related=0.95 unrelated=0.00
}
