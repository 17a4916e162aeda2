package ids

import (
	"errors"
	"math"
	"testing"
	"time"

	"rad/internal/analysis/jenks"
	"rad/internal/device"
	"rad/internal/store"
)

func repeat(pattern []string, times int) []string {
	out := make([]string, 0, len(pattern)*times)
	for i := 0; i < times; i++ {
		out = append(out, pattern...)
	}
	return out
}

func benignTraining() [][]string {
	// A joystick-like vocabulary wide enough that unseen transitions are
	// genuinely surprising (smoothed perplexity is bounded by vocabulary
	// size, so a two-command vocabulary cannot separate anomalies).
	return [][]string{
		repeat([]string{"ARM", "MVNG", "MVNG"}, 20),
		repeat([]string{"ARM", "MVNG", "ARM", "MVNG", "MVNG"}, 12),
		repeat([]string{"ARM", "MVNG"}, 25),
		repeat([]string{"CURR", "MOVE", "MVNG", "ARM", "MVNG"}, 10),
		repeat([]string{"JLEN", "ARM", "MVNG", "MVNG", "GRIP", "POSN", "SPED", "ARM"}, 8),
	}
}

func TestPerplexityDetectorSeparates(t *testing.T) {
	d, err := TrainPerplexity(benignTraining(), 2)
	if err != nil {
		t.Fatal(err)
	}
	benign := repeat([]string{"ARM", "MVNG", "MVNG"}, 10)
	weird := repeat([]string{"OUTP", "HOME", "BIAS", "OUTP"}, 10)
	if d.Anomalous(benign) {
		t.Errorf("benign trace flagged (score %v, threshold %v)", d.Score(benign), d.Threshold())
	}
	if !d.Anomalous(weird) {
		t.Errorf("anomalous trace missed (score %v, threshold %v)", d.Score(weird), d.Threshold())
	}
}

func TestTrainPerplexityEmpty(t *testing.T) {
	if _, err := TrainPerplexity(nil, 2); !errors.Is(err, ErrNoTrainingData) {
		t.Errorf("want ErrNoTrainingData, got %v", err)
	}
}

// TestClassifyJenksBatch runs the paper's batch protocol (§V-B) as Table I
// does: score each sequence, then split the scores with Jenks natural breaks.
func TestClassifyJenksBatch(t *testing.T) {
	d, err := TrainPerplexity(benignTraining(), 2)
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]string{
		repeat([]string{"ARM", "MVNG", "MVNG"}, 10),
		repeat([]string{"ARM", "MVNG"}, 15),
		repeat([]string{"HOME", "OUTP", "BIAS"}, 10), // anomaly
	}
	scores := make([]float64, len(batch))
	for i, seq := range batch {
		scores[i] = d.Score(seq)
	}
	flags, breakVal, ok := jenks.Split2(scores)
	if !ok {
		t.Fatalf("no Jenks split of %v", scores)
	}
	if flags[0] || flags[1] {
		t.Errorf("benign traces flagged: %v (break %v)", flags, breakVal)
	}
	if !flags[2] {
		t.Errorf("anomaly missed: %v (break %v)", flags, breakVal)
	}
}

func TestStreamingDetectorRaisesMidStream(t *testing.T) {
	d, err := TrainPerplexity(benignTraining(), 2)
	if err != nil {
		t.Fatal(err)
	}
	st := d.NewStream(12)
	// Feed benign traffic first: no alerts once warmed up.
	for i, c := range repeat([]string{"ARM", "MVNG", "MVNG"}, 8) {
		if _, alert := st.Observe(c); alert {
			t.Fatalf("false alert at benign command %d", i)
		}
	}
	// Then an injected attack pattern: alert must fire within the window.
	alerted := false
	for _, c := range repeat([]string{"OUTP", "HOME", "BIAS"}, 8) {
		if _, alert := st.Observe(c); alert {
			alerted = true
			break
		}
	}
	if !alerted {
		t.Error("stream never alerted on the injected pattern")
	}
}

func TestProcedureClassifier(t *testing.T) {
	joy := repeat([]string{"ARM", "MVNG", "MVNG"}, 15)
	sol := repeat([]string{"Q", "Q", "A", "V", "start_dosing", "target_mass"}, 8)
	crystal := repeat([]string{"IN_PV_1", "IN_PV_2", "START_1", "STOP_1"}, 8)
	c, err := TrainClassifier(
		[][]string{joy, joy, sol, sol, crystal},
		[]string{"P4", "P4", "P1", "P1", "P3"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got, sim := c.Classify(repeat([]string{"ARM", "MVNG"}, 10)); got != "P4" || sim < 0.5 {
		t.Errorf("joystick-like classified as %q (%v)", got, sim)
	}
	if got, _ := c.Classify(repeat([]string{"Q", "A", "V", "target_mass"}, 6)); got != "P1" {
		t.Errorf("solubility-like classified as %q", got)
	}
	if got, _ := c.Classify(repeat([]string{"IN_PV_1", "START_1"}, 6)); got != "P3" {
		t.Errorf("crystal-like classified as %q", got)
	}
	if got, sim := c.Classify(nil); got != "" || sim != 0 {
		t.Errorf("empty sequence: %q, %v", got, sim)
	}
	if len(c.Labels()) != 3 {
		t.Errorf("labels = %v", c.Labels())
	}
}

func TestTrainClassifierValidation(t *testing.T) {
	if _, err := TrainClassifier(nil, nil); !errors.Is(err, ErrNoLabelledRuns) {
		t.Error("empty training should fail")
	}
	if _, err := TrainClassifier([][]string{{"A"}}, []string{"x", "y"}); err == nil {
		t.Error("mismatched lengths should fail")
	}
}

func rec(dev, name string, at time.Time) store.Record {
	return store.Record{Device: dev, Name: name, Time: at, EndTime: at.Add(time.Millisecond)}
}

func TestRuleEngineUnknownCommand(t *testing.T) {
	e := NewRuleEngine()
	t0 := time.Unix(1000, 0)
	vs := e.Check(rec(device.C9, device.Init, t0))
	vs = append(vs, e.Check(rec(device.C9, "SELF_DESTRUCT", t0.Add(time.Second)))...)
	if len(vs) != 1 || vs[0].Rule != "unknown-command" {
		t.Errorf("violations = %+v", vs)
	}
}

func TestRuleEngineUninitializedDevice(t *testing.T) {
	e := NewRuleEngine()
	vs := e.Check(rec(device.UR3e, "move_joints", time.Unix(0, 0)))
	if len(vs) != 1 || vs[0].Rule != "uninitialized-device" {
		t.Errorf("violations = %+v", vs)
	}
	// After init, the same command is clean.
	e.Check(rec(device.UR3e, device.Init, time.Unix(1, 0)))
	if vs := e.Check(rec(device.UR3e, "move_joints", time.Unix(2, 0))); len(vs) != 0 {
		t.Errorf("post-init violations = %+v", vs)
	}
}

func TestRuleEngineActuationFault(t *testing.T) {
	e := NewRuleEngine()
	e.Check(rec(device.Quantos, device.Init, time.Unix(0, 0)))
	r := rec(device.Quantos, "front_door", time.Unix(1, 0))
	r.Exception = "Quantos: hardware fault: door crashed"
	vs := e.Check(r)
	if len(vs) != 1 || vs[0].Rule != "actuation-fault" {
		t.Errorf("violations = %+v", vs)
	}
	// A failed read is not an actuation fault.
	q := rec(device.Tecan, "Q", time.Unix(2, 0))
	q.Exception = "timeout"
	e.Check(rec(device.Tecan, device.Init, time.Unix(2, 0)))
	if vs := e.Check(q); len(vs) != 0 {
		t.Errorf("read fault flagged: %+v", vs)
	}
}

func TestPowerDetectorMatchesAndFlags(t *testing.T) {
	p := NewPowerDetector()
	// Reference signature: one accel/decel hump.
	ref := make([]float64, 60)
	for i := range ref {
		ref[i] = math.Sin(float64(i) / 59 * math.Pi)
	}
	p.Learn("L0-L1", ref)
	if len(p.Labels()) != 1 {
		t.Fatalf("labels = %v", p.Labels())
	}

	// Same shape, slightly different sampling: matches.
	same := make([]float64, 80)
	for i := range same {
		same[i] = math.Sin(float64(i)/79*math.Pi) * 1.02
	}
	m, err := p.Classify(same)
	if err != nil {
		t.Fatal(err)
	}
	if m.Anomalous || m.Label != "L0-L1" || m.Correlation < 0.99 {
		t.Errorf("match = %+v", m)
	}

	// Same shape, doubled amplitude (heavy payload): flagged.
	heavy := make([]float64, 60)
	for i := range heavy {
		heavy[i] = 2.2 * ref[i]
	}
	m, err = p.Classify(heavy)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Anomalous || m.Label != "L0-L1" {
		t.Errorf("heavy payload not flagged: %+v", m)
	}

	// Unrelated shape: flagged as unknown trajectory.
	noise := make([]float64, 60)
	for i := range noise {
		noise[i] = math.Sin(float64(i) * 2.7)
	}
	m, err = p.Classify(noise)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Anomalous {
		t.Errorf("unknown trajectory not flagged: %+v", m)
	}
}

func TestPowerDetectorEdgeCases(t *testing.T) {
	p := NewPowerDetector()
	if _, err := p.Classify([]float64{1, 2, 3}); !errors.Is(err, ErrNoTemplates) {
		t.Errorf("want ErrNoTemplates, got %v", err)
	}
	p.Learn("too-short", []float64{1}) // ignored
	if len(p.Labels()) != 0 {
		t.Error("short template should be ignored")
	}
	p.Learn("ok", []float64{0, 1, 0})
	m, err := p.Classify([]float64{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Anomalous {
		t.Error("empty trace should be anomalous")
	}
}
