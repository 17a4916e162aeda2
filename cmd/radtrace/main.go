// Command radtrace connects to a running middlebox (see cmd/radmiddlebox)
// and executes one of the paper's procedures against it in REMOTE mode, with
// every command traced — the lab computer's side of Fig. 1.
//
// Usage:
//
//	radtrace [-middlebox ADDR] [-procedure P1|P2|P3|P4] [-run LABEL] [-vials N] [-solid NAME]
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"

	"rad/internal/obs/span"
	"rad/internal/procedure"
	"rad/internal/simclock"
	"rad/internal/tracer"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "radtrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("radtrace", flag.ContinueOnError)
	addr := fs.String("middlebox", "127.0.0.1:7780", "middlebox address")
	proc := fs.String("procedure", "P4", "procedure to run: P1, P2, P3, or P4 (joystick)")
	runLabel := fs.String("run", "", "run label for the traces (empty = unsupervised)")
	vials := fs.Int("vials", 0, "vials to screen (0 = procedure default)")
	solid := fs.String("solid", "NABH4", "solid for solubility screens")
	presses := fs.Int("presses", 20, "button presses for joystick sessions")
	seed := fs.Uint64("seed", 0, "per-run random seed (0 = nondeterministic)")
	spanBuffer := fs.Int("span-buffer", 512, "client span flight-recorder ring capacity: the most spans held at once, the oldest overwritten first (0 disables request tracing)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	transport, err := tracer.DialTCP(*addr)
	if err != nil {
		return err
	}
	clock := simclock.Real{}
	sess := tracer.NewSession(transport, clock, tracer.Config{DefaultMode: tracer.ModeRemote})
	defer sess.Close()
	// The client-side flight recorder brackets every Exec in a client span
	// and stamps its trace context into the outgoing request, so the
	// middlebox's server/exec/store/stream spans stitch under this
	// process's spans (inspect them with radwatch -spans against the
	// middlebox's -obs-addr).
	var spans *span.Recorder
	if *spanBuffer > 0 {
		spans = span.NewRecorder(span.Config{Buffer: *spanBuffer, Seed: *seed})
		sess.SetSpans(spans)
	}

	// Assemble a Lab whose virtualized devices all point at the remote
	// middlebox. The raw simulators live on the middlebox, so fault
	// injection and payload context are unavailable here — exactly the lab
	// computer's view.
	lab, err := procedure.NewLab(sess, clock, rand.New(rand.NewPCG(*seed+1, *seed^0x9e3779b97f4a7c15)))
	if err != nil {
		return err
	}
	label := *proc
	if label == "joystick" {
		label = procedure.Joystick
	}
	res := procedure.Run(lab, label, procedure.Options{
		Run: *runLabel, Vials: *vials, Solid: *solid, Presses: *presses, Seed: *seed,
	})

	status := "complete"
	switch {
	case res.Anomalous:
		status = "ANOMALOUS (crash)"
	case errors.Is(res.Err, procedure.Stopped):
		status = "stopped by operator"
	case res.Err != nil:
		return fmt.Errorf("procedure failed: %w", res.Err)
	}
	fmt.Printf("procedure %s (%s): %d commands traced, %s\n",
		res.Procedure, *runLabel, res.Commands, status)
	if spans != nil {
		st := spans.Stats()
		fmt.Printf("client spans: %d recorded, %d buffered\n", st.Recorded, st.Buffered)
	}
	return nil
}
