package attack

import (
	"strings"
	"testing"

	"rad/internal/wire"
)

// fakeTransport records forwarded requests and answers "ok".
type fakeTransport struct {
	sent []wire.Request
}

func (f *fakeTransport) RoundTrip(req wire.Request) (wire.Reply, error) {
	f.sent = append(f.sent, req)
	return wire.Reply{ID: req.ID, Value: "ok"}, nil
}

func (f *fakeTransport) Close() error { return nil }

func exec(dev, name string, args ...string) wire.Request {
	return wire.Request{Op: wire.OpExec, Device: dev, Name: name, Args: args,
		Procedure: "P2", Run: "victim"}
}

func TestKindsStringAndList(t *testing.T) {
	if len(Kinds()) != 6 {
		t.Fatalf("%d attack kinds", len(Kinds()))
	}
	for _, k := range Kinds() {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}

func TestInactiveBeforeStartAfter(t *testing.T) {
	next := &fakeTransport{}
	a := New(next, Config{Kind: Injection, StartAfter: 100, Intensity: 1, Seed: 1})
	for i := 0; i < 50; i++ {
		if _, err := a.RoundTrip(exec("C9", "MVNG")); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.Events()) != 0 {
		t.Errorf("%d events before StartAfter", len(a.Events()))
	}
	if len(next.sent) != 50 {
		t.Errorf("forwarded %d, want 50", len(next.sent))
	}
}

func TestInjectionAddsCommandsWithVictimLabels(t *testing.T) {
	next := &fakeTransport{}
	a := New(next, Config{Kind: Injection, StartAfter: 0, Intensity: 1, Seed: 1})
	for i := 0; i < 10; i++ {
		if _, err := a.RoundTrip(exec("C9", "MVNG")); err != nil {
			t.Fatal(err)
		}
	}
	events := a.Events()
	if len(events) != 10 {
		t.Fatalf("%d injection events at intensity 1", len(events))
	}
	if len(next.sent) != 20 {
		t.Errorf("forwarded %d requests, want 20 (victim + injected)", len(next.sent))
	}
	injected := 0
	for _, req := range next.sent {
		if req.Name != "MVNG" {
			injected++
			if req.Run != "victim" || req.Procedure != "P2" {
				t.Fatalf("injected request lacks spoofed labels: %+v", req)
			}
		}
	}
	if injected != 10 {
		t.Errorf("injected = %d", injected)
	}
}

func TestReplayResendsRecordedPrefix(t *testing.T) {
	next := &fakeTransport{}
	a := New(next, Config{Kind: Replay, StartAfter: 3, Intensity: 1, Seed: 1})
	prefix := []wire.Request{
		exec("C9", "ARM", "1", "2", "3"),
		exec("C9", "GRIP", "close"),
		exec("Tecan", "A", "100"),
	}
	for _, req := range prefix {
		if _, err := a.RoundTrip(req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := a.RoundTrip(exec("C9", "MVNG")); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.Events()) != 5 {
		t.Fatalf("%d replay events", len(a.Events()))
	}
	// Every replayed command must be one of the recorded prefix.
	recorded := map[string]bool{"ARM": true, "GRIP": true, "A": true}
	replayed := 0
	for _, req := range next.sent[3:] {
		if req.Name != "MVNG" {
			replayed++
			if !recorded[req.Name] {
				t.Errorf("replayed %q was never recorded", req.Name)
			}
		}
	}
	if replayed != 5 {
		t.Errorf("replayed = %d", replayed)
	}
}

func TestSpeedTamperScalesVelocities(t *testing.T) {
	next := &fakeTransport{}
	a := New(next, Config{Kind: SpeedTamper, StartAfter: 0, Factor: 3, Seed: 1})
	cases := []wire.Request{
		exec("C9", "SPED", "100"),
		exec("UR3e", "move_to_location", "L1", "200"),
		exec("UR3e", "move_joints", "1", "2", "3", "4", "5", "6", "150"),
		exec("C9", "MVNG"), // untouched
	}
	for _, req := range cases {
		if _, err := a.RoundTrip(req); err != nil {
			t.Fatal(err)
		}
	}
	if got := next.sent[0].Args[0]; got != "300" {
		t.Errorf("SPED tampered to %q", got)
	}
	if got := next.sent[1].Args[1]; got != "600" {
		t.Errorf("move velocity tampered to %q", got)
	}
	if got := next.sent[2].Args[6]; got != "450" {
		t.Errorf("move_joints velocity tampered to %q", got)
	}
	if len(a.Events()) != 3 {
		t.Errorf("%d tamper events", len(a.Events()))
	}
	// The original request must not be mutated (defensive copy).
	if cases[0].Args[0] != "100" {
		t.Error("tamper mutated the victim's request")
	}
}

func TestParameterTamperTargets(t *testing.T) {
	next := &fakeTransport{}
	a := New(next, Config{Kind: ParameterTamper, StartAfter: 0, Factor: 10, Seed: 1})
	if _, err := a.RoundTrip(exec("Quantos", "target_mass", "50")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RoundTrip(exec("IKA", "OUT_SP_1", "40")); err != nil {
		t.Fatal(err)
	}
	if got := next.sent[0].Args[0]; got != "500" {
		t.Errorf("target_mass tampered to %q", got)
	}
	if got := next.sent[1].Args[0]; got != "400" {
		t.Errorf("OUT_SP_1 tampered to %q", got)
	}
}

func TestDropSuppressesStops(t *testing.T) {
	next := &fakeTransport{}
	a := New(next, Config{Kind: Drop, StartAfter: 0, Intensity: 1, Seed: 1})
	reply, err := a.RoundTrip(exec("IKA", "STOP_4"))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Value != "ok" {
		t.Errorf("forged reply = %+v", reply)
	}
	if len(next.sent) != 0 {
		t.Error("suppressed command was forwarded")
	}
	// Non-safety commands pass through.
	if _, err := a.RoundTrip(exec("IKA", "IN_PV_4")); err != nil {
		t.Fatal(err)
	}
	if len(next.sent) != 1 {
		t.Error("benign command not forwarded")
	}
}

func TestReorderSwapsAndFlushesOnClose(t *testing.T) {
	next := &fakeTransport{}
	a := New(next, Config{Kind: Reorder, StartAfter: 0, Intensity: 1, Seed: 1})
	if _, err := a.RoundTrip(exec("C9", "ARM", "1", "2", "3")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RoundTrip(exec("C9", "MVNG")); err != nil {
		t.Fatal(err)
	}
	// ARM was held; MVNG went first, then the held ARM.
	if len(next.sent) < 2 || next.sent[0].Name != "MVNG" || next.sent[1].Name != "ARM" {
		names := []string{}
		for _, r := range next.sent {
			names = append(names, r.Name)
		}
		t.Fatalf("delivery order = %v, want [MVNG ARM ...]", names)
	}
	// A held request at close time is flushed.
	if _, err := a.RoundTrip(exec("C9", "HOME")); err != nil {
		t.Fatal(err)
	}
	before := len(next.sent)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if len(next.sent) != before+1 {
		t.Error("held request not flushed on close")
	}
}

func TestPingAndTracePassThroughUntouched(t *testing.T) {
	next := &fakeTransport{}
	a := New(next, Config{Kind: Injection, StartAfter: 0, Intensity: 1, Seed: 1})
	if _, err := a.RoundTrip(wire.Request{Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RoundTrip(wire.Request{Op: wire.OpTrace, Device: "C9", Name: "MVNG"}); err != nil {
		t.Fatal(err)
	}
	if len(a.Events()) != 0 {
		t.Error("non-exec traffic attacked")
	}
}

func TestScenarioRunEndToEnd(t *testing.T) {
	out, err := Run(Scenario{Name: "t",
		Attack: Config{Kind: Injection, StartAfter: 10, Intensity: 0.5, Seed: 3}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Attacked() {
		t.Fatal("injection scenario produced no events")
	}
	if len(out.Records) == 0 {
		t.Fatal("no trace records")
	}
	// The trace contains more commands than the victim issued (injections
	// blend into the victim's run label).
	if len(out.Records) <= out.VictimResult.Commands {
		t.Errorf("trace %d records vs victim %d commands; injections missing from trace",
			len(out.Records), out.VictimResult.Commands)
	}
}

func TestScenarioBenignControl(t *testing.T) {
	out, err := Run(Scenario{Name: "control", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Attacked() {
		t.Error("benign control has attack events")
	}
	if out.VictimResult.Err != nil {
		t.Errorf("benign control failed: %v", out.VictimResult.Err)
	}
}

func TestStandardSuiteShape(t *testing.T) {
	suite := StandardSuite(1)
	if len(suite) != 7 {
		t.Fatalf("suite has %d scenarios, want control + 6 attacks", len(suite))
	}
	if suite[0].Attack.Kind != 0 {
		t.Error("first scenario should be the benign control")
	}
	seen := map[Kind]bool{}
	for _, sc := range suite[1:] {
		seen[sc.Attack.Kind] = true
	}
	if len(seen) != 6 {
		t.Errorf("suite covers %d kinds", len(seen))
	}
}
