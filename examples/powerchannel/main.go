// Power side channel: reproduce §VI's RQ3 end to end. Record the UR3e's
// joint-1 current while it performs known motions, teach the signatures to
// the power detector, then show that the detector (i) recognizes a repeat of
// a known motion, (ii) flags an unexpected payload (Fig. 7d's effect), and
// (iii) flags an unknown trajectory — all without touching the command
// stream, which is the point of the side channel.
package main

import (
	"fmt"
	"log"

	"rad"
)

func main() {
	det := rad.NewPowerDetector()
	toL0 := func(_ *rad.VirtualLab, arm rad.Device) { move(arm, "L0", 0) }

	// Phase 1 — enrolment: run each reference motion and learn its
	// signature. (In the lab this is a power probe at the outlet; here it is
	// the simulated RTDE feed.)
	fmt.Println("enrolling reference motions:")
	for _, loc := range []string{"L1", "L2", "L3"} {
		cur := record(1, toL0, loc)
		det.Learn("L0->"+loc, cur)
		fmt.Printf("  L0->%s: %d samples, peak %.3f\n", loc, len(cur), peak(cur))
	}

	// Phase 2 — a repeat of a known motion on a different day (fresh noise).
	report(det, "repeat of L0->L2", record(99, toL0, "L2"))

	// Phase 3 — the same motion but secretly carrying a 1 kg payload: the
	// trajectory matches, the amplitude does not. A command-based IDS cannot
	// see this (weights are not command arguments, §VI).
	cur := record(100, func(lab *rad.VirtualLab, arm rad.Device) {
		move(arm, "storage_rack", 0)
		lab.Lab.Raw.UR3e.SetNextPayload(1.0)
		grip(arm, "close_gripper")
		move(arm, "L0", 0)
	}, "L2")
	report(det, "L0->L2 with hidden 1 kg payload", cur)

	// Phase 4 — an attacker drives the arm somewhere it never goes.
	report(det, "unknown trajectory (L0->camera->quantos)", record(101, toL0, "camera_station", "quantos_tray"))
}

// record runs setup in a fresh power-enabled lab, then moves the arm along
// path and returns the joint-1 current the lab captured along path.
func record(seed uint64, setup func(*rad.VirtualLab, rad.Device), path ...string) []float64 {
	lab, err := rad.NewVirtualLab(rad.VirtualLabConfig{Seed: seed, WithPower: true})
	if err != nil {
		log.Fatal(err)
	}
	defer lab.Close()
	arm := lab.Lab.UR3e
	if _, err := arm.Exec(rad.Command{Name: "__init__"}); err != nil {
		log.Fatal(err)
	}
	setup(lab, arm)
	start := len(lab.Power())
	for _, loc := range path {
		move(arm, loc, 0)
	}
	return rad.CurrentSeries(lab.Power()[start:], 0)
}

func move(arm rad.Device, loc string, vel float64) {
	args := []string{loc}
	if vel > 0 {
		args = append(args, fmt.Sprintf("%g", vel))
	}
	if _, err := arm.Exec(rad.Command{Name: "move_to_location", Args: args}); err != nil {
		log.Fatal(err)
	}
}

func grip(arm rad.Device, name string) {
	if _, err := arm.Exec(rad.Command{Name: name}); err != nil {
		log.Fatal(err)
	}
}

func report(det *rad.PowerDetector, what string, cur []float64) {
	m, err := det.Classify(cur)
	if err != nil {
		log.Fatal(err)
	}
	verdict := "ok"
	if m.Anomalous {
		verdict = "ANOMALOUS — " + m.Reason
	}
	fmt.Printf("\n%s:\n  best match %q (r=%.3f, amplitude ratio %.2f): %s\n",
		what, m.Label, m.Correlation, m.AmplitudeRatio, verdict)
}

func peak(xs []float64) float64 {
	best := 0.0
	for _, x := range xs {
		if x < 0 {
			x = -x
		}
		if x > best {
			best = x
		}
	}
	return best
}
