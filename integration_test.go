package rad_test

// The kitchen-sink integration test: every layer of the reproduction in one
// scenario, driven through the public API only.
//
// A virtual lab runs with its serially attached instruments behind emulated
// serial stacks and power telemetry on. A man-in-the-middle speed attack
// multiplies the UR3e's commanded velocities by 4. The tampered command
// exceeds the arm's safety limit, so the safety system latches a protective
// stop; the failure is traced as an exception; the middlebox rule engine
// flags the actuation fault; and the streaming perplexity IDS — trained on
// benign runs — alerts on the disrupted command stream.

import (
	"errors"
	"testing"

	"rad"
	"rad/internal/procedure"
)

func TestIntegrationSpeedAttackTripsEveryDefense(t *testing.T) {
	// Phase 1 — train the streaming IDS on benign serial-lab P2 runs.
	var trainingSeqs [][]string
	for i := 0; i < 6; i++ {
		lab, err := rad.NewVirtualLab(rad.VirtualLabConfig{
			Seed: uint64(100 + i), SerialDevices: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := rad.RunSolubilityN9UR(lab.Lab, rad.ProcedureOptions{
			Run: "train", Seed: uint64(500 + i), Vials: 1 + i%3,
			Solid: []string{"NABH4", "CSTI", "GENTISTIC"}[i%3],
		})
		if res.Err != nil {
			t.Fatalf("training run %d: %v", i, res.Err)
		}
		trainingSeqs = append(trainingSeqs, lab.Sink.CommandSequence(nil))
		if err := lab.Close(); err != nil {
			t.Fatal(err)
		}
	}
	det, err := rad.TrainPerplexityDetector(trainingSeqs, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2 — the attacked run: serial stacks + power + MITM interceptor.
	var interceptor *rad.Interceptor
	lab, err := rad.NewVirtualLab(rad.VirtualLabConfig{
		Seed: 42, SerialDevices: true, WithPower: true,
		WrapTransport: func(next rad.Transport) rad.Transport {
			interceptor = rad.NewInterceptor(next, rad.AttackConfig{
				Kind: rad.AttackSpeedTamper, StartAfter: 15, Factor: 4, Seed: 7,
			})
			return interceptor
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()

	res := rad.RunSolubilityN9UR(lab.Lab, rad.ProcedureOptions{Run: "victim", Seed: 900})
	// ×4 on a 200 mm/s move commands 800 mm/s: the safety system refuses it
	// and the script sees the failure.
	if res.Err == nil {
		t.Fatal("the speed attack should have disrupted the run")
	}
	if !errors.Is(res.Err, procedure.Stopped) && res.Err.Error() == "" {
		t.Fatalf("unexpected termination: %v", res.Err)
	}
	if len(interceptor.Events()) == 0 {
		t.Fatal("the interceptor never tampered")
	}

	// Phase 3 — the defenses all saw it.
	recs := lab.Sink.ByRun("victim")
	if len(recs) == 0 {
		t.Fatal("no trace records")
	}
	// (a) The protective stop is in the trace as an exception.
	stopTraced := false
	for _, r := range recs {
		if r.Exception != "" && r.Device == rad.DeviceUR3e {
			stopTraced = true
		}
	}
	if !stopTraced {
		t.Error("protective stop not traced as a UR3e exception")
	}
	// (b) The rule engine flags the actuation fault.
	engine := rad.NewRuleEngine()
	faults := 0
	for _, r := range recs {
		for _, v := range engine.Check(r) {
			if v.Rule == "actuation-fault" {
				faults++
			}
		}
	}
	if faults == 0 {
		t.Error("rule engine missed the actuation fault")
	}
	// (c) The full-run perplexity is anomalous against benign training.
	seq := lab.Sink.CommandSequence(nil)
	if !det.Anomalous(seq) {
		t.Errorf("perplexity IDS missed the disrupted run (score %.3f, threshold %.3f)",
			det.Score(seq), det.Threshold())
	}
}
