package experiments

import (
	"reflect"
	"strings"
	"testing"

	"rad/internal/rad"
)

// smallDataset is the seed-11 campaign at scale 0.02: the 25 supervised
// runs are scale-invariant, and the unknown-procedure bulk shrinks to one
// 481-command session, so the extension analyses are pinned cheaply.
var smallDataset *rad.Dataset

func small(t *testing.T) *rad.Dataset {
	t.Helper()
	if smallDataset == nil {
		ds, err := rad.Generate(rad.Config{Seed: 11, Scale: 0.02})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		smallDataset = ds
	}
	return smallDataset
}

// checkRender compares a rendering with want line for line.
func checkRender(t *testing.T, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("rendered\n%s\nwant\n%s", got, want)
	}
}

// TestRuleTally pins the middlebox rule engine's verdicts over the whole
// campaign (radbench prints the same counts at scale 0.2).
func TestRuleTally(t *testing.T) {
	rows := RuleTally(small(t))
	want := []RuleCount{{"actuation-fault", 55}, {"uninitialized-device", 63}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("tally %+v, want %+v", rows, want)
	}
	checkRender(t, RenderRuleTally(rows), `Rule engine — middlebox rule violations over the whole campaign
  actuation-fault        55
  uninitialized-device   63
`)
	if got := RenderRuleTally(nil); !strings.Contains(got, "no violations") {
		t.Errorf("an empty tally renders\n%s", got)
	}
}

// TestAutoLabel pins the auto-labeller over the scaled-down bulk: its one
// session of unknown procedure is the joystick workload it resembles.
func TestAutoLabel(t *testing.T) {
	res, err := AutoLabel(small(t))
	if err != nil {
		t.Fatal(err)
	}
	want := AutoLabelResult{Records: 481, Sessions: 1, Labels: []LabelCount{{"P4", 1, 481}}}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("auto-labelling %+v, want %+v", res, want)
	}
	checkRender(t, RenderAutoLabel(res), `Auto-labelling — unknown-procedure bulk, segmented into sessions and classified
481 unknown-procedure records segmented into 1 sessions:
  P4                      1 sessions     481 commands
`)
}

// TestSpecMining pins the loop structure mined from the benign P3 runs and
// the trigram model's synthesized continuation.
func TestSpecMining(t *testing.T) {
	res := SpecMining(small(t))
	if res.Runs == 0 || res.Shared {
		t.Fatalf("mined %d P3 runs, shared structure %v; want runs that differ", res.Runs, res.Shared)
	}
	checkRender(t, RenderSpecMining(res), `Specification mining — loop structure of the benign P3 runs
most-covering repeated blocks across benign P3 runs:
  ×101  { IN_PV_1 IN_PV_2 }
  ×14   { GRIP ARM MVNG MVNG }
  ×38   { MVNG }
  ×6    { GRIP ARM MVNG MVNG MVNG MVNG }
  ×35   { Q }
runs differ structurally (loop counts vary per solid); per-run specs mined
loop coverage of first P3 run: 71%

Program synthesis — trigram LM over the supervised runs
most likely continuation of [__init__ HOME]: MVNG MVNG MVNG MVNG MVNG MVNG MVNG MVNG MVNG MVNG MVNG MVNG
`)
}
