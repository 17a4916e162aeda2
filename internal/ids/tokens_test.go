package ids

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"rad/internal/store"
)

func rec2(dev, name string, args ...string) store.Record {
	return store.Record{Device: dev, Name: name, Args: args}
}

func trainingRecords() []store.Record {
	var out []store.Record
	// SPED values 100..250 — the normal velocity band.
	for v := 100; v <= 250; v += 10 {
		out = append(out, rec2("C9", "SPED", strconv.Itoa(v)))
	}
	// GRIP categorical values.
	out = append(out, rec2("C9", "GRIP", "open"), rec2("C9", "GRIP", "close"))
	// A command with no args.
	out = append(out, rec2("C9", "MVNG"))
	return out
}

func TestQuantizerBucketsInRange(t *testing.T) {
	q := FitArgQuantizer(trainingRecords(), 4)
	low := q.Token(rec2("C9", "SPED", "105"))
	high := q.Token(rec2("C9", "SPED", "245"))
	if !strings.HasPrefix(low, "SPED(q") || !strings.HasPrefix(high, "SPED(q") {
		t.Errorf("in-range tokens: %q, %q", low, high)
	}
	if low == high {
		t.Errorf("slow and fast velocities share bucket %q", low)
	}
}

func TestQuantizerOutlierBuckets(t *testing.T) {
	q := FitArgQuantizer(trainingRecords(), 4)
	if got := q.Token(rec2("C9", "SPED", "750")); got != "SPED(hi)" {
		t.Errorf("tampered 3× speed token = %q, want SPED(hi)", got)
	}
	if got := q.Token(rec2("C9", "SPED", "5")); got != "SPED(lo)" {
		t.Errorf("crawling speed token = %q, want SPED(lo)", got)
	}
}

func TestQuantizerCategoricalValues(t *testing.T) {
	q := FitArgQuantizer(trainingRecords(), 4)
	if got := q.Token(rec2("C9", "GRIP", "open")); got != "GRIP(open)" {
		t.Errorf("known categorical = %q", got)
	}
	if got := q.Token(rec2("C9", "GRIP", "sideways")); got != "GRIP(new)" {
		t.Errorf("novel categorical = %q", got)
	}
}

func TestQuantizerNoArgsAndUnknownStreams(t *testing.T) {
	q := FitArgQuantizer(trainingRecords(), 4)
	if got := q.Token(rec2("C9", "MVNG")); got != "MVNG" {
		t.Errorf("no-arg token = %q", got)
	}
	// A numeric argument on a command/index never seen numeric in training.
	if got := q.Token(rec2("C9", "NEWCMD", "42")); got != "NEWCMD(num?)" {
		t.Errorf("unknown numeric stream = %q", got)
	}
}

func TestTokenizeAndNameSequence(t *testing.T) {
	q := FitArgQuantizer(trainingRecords(), 4)
	recs := []store.Record{rec2("C9", "MVNG"), rec2("C9", "SPED", "150")}
	toks := q.Tokenize(recs)
	if len(toks) != 2 || toks[0] != "MVNG" || !strings.HasPrefix(toks[1], "SPED(") {
		t.Errorf("tokens = %v", toks)
	}
	names := NameSequence(recs)
	if names[0] != "MVNG" || names[1] != "SPED" {
		t.Errorf("names = %v", names)
	}
}

func TestArgAwareDetectorSeparatesTamperedArgs(t *testing.T) {
	// Training: a repetitive procedure with velocities in the normal band.
	var runs [][]store.Record
	for r := 0; r < 4; r++ {
		var run []store.Record
		for i := 0; i < 40; i++ {
			run = append(run,
				rec2("C9", "SPED", strconv.Itoa(100+(i%4)*50)),
				rec2("C9", "ARM", "10", "20", "30"),
				rec2("C9", "MVNG"),
			)
		}
		runs = append(runs, run)
	}
	det, err := TrainArgAwarePerplexity(runs, 3, 0)
	if err != nil {
		t.Fatal(err)
	}

	// A benign run in the same band.
	var benign []store.Record
	for i := 0; i < 30; i++ {
		benign = append(benign,
			rec2("C9", "SPED", strconv.Itoa(150+(i%3)*50)),
			rec2("C9", "ARM", "10", "20", "30"),
			rec2("C9", "MVNG"),
		)
	}
	if det.Anomalous(benign) {
		t.Errorf("benign run flagged (score %v, threshold %v)",
			det.ScoreRecords(benign), det.Threshold())
	}

	// The same run with every speed tripled: names identical, args wild.
	var tampered []store.Record
	for i := 0; i < 30; i++ {
		tampered = append(tampered,
			rec2("C9", "SPED", strconv.Itoa((150+(i%3)*50)*3)),
			rec2("C9", "ARM", "10", "20", "30"),
			rec2("C9", "MVNG"),
		)
	}
	if !det.Anomalous(tampered) {
		t.Errorf("speed-tampered run not flagged (score %v, threshold %v)",
			det.ScoreRecords(tampered), det.Threshold())
	}
	// The name-only baseline cannot see it.
	nameDet, err := TrainPerplexity(func() [][]string {
		out := make([][]string, len(runs))
		for i, r := range runs {
			out[i] = NameSequence(r)
		}
		return out
	}(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if nameDet.Anomalous(NameSequence(tampered)) {
		t.Error("name-only detector flagged a pure argument tamper; tokenization leak?")
	}
}

func TestTrainArgAwareEmpty(t *testing.T) {
	if _, err := TrainArgAwarePerplexity(nil, 3, 0); !errors.Is(err, ErrNoTrainingData) {
		t.Errorf("want ErrNoTrainingData, got %v", err)
	}
}

func TestArgAwareThresholdPositive(t *testing.T) {
	runs := [][]store.Record{{rec2("C9", "SPED", "100")}, {rec2("C9", "SPED", "200")}}
	det, err := TrainArgAwarePerplexity(runs, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if det.Threshold() <= 0 {
		t.Error("threshold not positive")
	}
}
