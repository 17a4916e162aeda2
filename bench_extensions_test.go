package rad_test

// Benchmarks for the extension substrates: the serial stack, the attack
// interceptor, the power-signature detector, and specification mining.

import (
	"math"
	"testing"
	"time"

	"rad"
	"rad/internal/analysis/specmine"
	"rad/internal/attack"
	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/serial"
	"rad/internal/simclock"
	"rad/internal/wire"
)

// BenchmarkSerialRoundTrip measures one command across the full emulated
// serial stack (client → baud-timed link → firmware → device and back)
// under a virtual clock.
func BenchmarkSerialRoundTrip(b *testing.B) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	labEnd, devEnd := serial.Pipe(clock, clock, serial.DefaultBaud)
	fw := serial.NewFirmware(c9.New(device.NewEnv(clock, 1)), devEnd)
	go fw.Serve()
	defer labEnd.Close()
	client := serial.NewClient(device.C9, labEnd)
	if _, err := client.Exec(device.Command{Name: device.Init}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Exec(device.Command{Name: "MVNG"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttackInterceptorOverhead measures the MITM interceptor's cost on
// the command path when the attack is dormant and when it tampers.
func BenchmarkAttackInterceptorOverhead(b *testing.B) {
	for _, mode := range []string{"dormant", "tampering"} {
		b.Run(mode, func(b *testing.B) {
			next := nullTransport{}
			startAfter := 1 << 60 // dormant: never activates
			if mode == "tampering" {
				startAfter = 0
			}
			ic := attack.New(next, attack.Config{
				Kind: attack.SpeedTamper, StartAfter: startAfter, Seed: 1,
			})
			req := wire.Request{Op: wire.OpExec, Device: "C9", Name: "SPED", Args: []string{"150"}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ic.RoundTrip(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type nullTransport struct{}

func (nullTransport) RoundTrip(req wire.Request) (wire.Reply, error) {
	return wire.Reply{ID: req.ID, Value: "ok"}, nil
}
func (nullTransport) Close() error { return nil }

// BenchmarkPowerDetectorClassify measures signature matching against an
// enrolled library (the per-move cost of an online power IDS).
func BenchmarkPowerDetectorClassify(b *testing.B) {
	det := rad.NewPowerDetector()
	mk := func(freq float64) []float64 {
		out := make([]float64, 80)
		for i := range out {
			out[i] = math.Sin(float64(i) * freq)
		}
		return out
	}
	for i, f := range []float64{0.05, 0.08, 0.11, 0.14, 0.17} {
		det.Learn([]string{"a", "b", "c", "d", "e"}[i], mk(f))
	}
	probe := mk(0.08)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Classify(probe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpecMine measures specification mining over a supervised run.
func BenchmarkSpecMine(b *testing.B) {
	ds := benchDataset(b)
	seqs, _ := ds.SupervisedSequences()
	seq := seqs[21] // a P3 run: loop-heavy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := specmine.Mine(seq)
		if len(spec) == 0 {
			b.Fatal("empty spec")
		}
	}
}

// BenchmarkArgAwareTokenize measures the argument-aware tokenization cost
// per record stream (the added per-command cost over name-only IDS).
func BenchmarkArgAwareTokenize(b *testing.B) {
	lab, err := rad.NewVirtualLab(rad.VirtualLabConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer lab.Close()
	rad.RunSolubilityN9UR(lab.Lab, rad.ProcedureOptions{Run: "r", Seed: 9})
	recs := lab.Sink.ByRun("r")
	q := rad.FitArgQuantizer(recs, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		toks := q.Tokenize(recs)
		if len(toks) != len(recs) {
			b.Fatal("tokenize length mismatch")
		}
	}
}
