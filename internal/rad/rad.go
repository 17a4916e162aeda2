// Package rad assembles the Robotic Arm Dataset: a synthetic reproduction of
// the three-month trace collection described in §IV. It generates the 25
// supervised procedure runs (12×P4 joystick, 5×P1, 4×P2, 4×P3, three of
// which end in physical crashes), the unsupervised prototyping bulk, and the
// power captures for the supervised P2 runs — landing exactly on the
// per-device trace-object totals the paper reports for Fig. 5(a).
//
// # Sharded generation and the canonical ordering
//
// The campaign is generated as independent shards, fanned out over a bounded
// worker pool (internal/parallel) and merged deterministically:
//
//  1. every supervised run is one shard (shards 0–24, in Fig. 6 ID order);
//  2. every structured unsupervised session (joystick, P1, P2, P3) is one
//     shard, in planning order;
//  3. each device's top-up fill stream is one shard, in device legend order.
//
// Each shard executes on its own virtual lab with a private, seed-derived
// rand/v2 stream and its own virtual clock, started at an instant assigned
// by a serial planning pass — so a shard's trace content is a pure function
// of (Config.Seed, shard ordinal) and never of scheduling. The merged
// dataset is ordered canonically: records sort by virtual timestamp, with
// ties broken by shard ordinal and then by position within the shard, and
// sequence numbers are assigned after the merge. The result is byte-identical
// for every Workers value and every GOMAXPROCS setting (asserted by the
// golden-hash regression test in rad_test.go).
package rad

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"rad/internal/device"
	"rad/internal/parallel"
	"rad/internal/power"
	"rad/internal/procedure"
	"rad/internal/store"
)

// TotalTraceObjects is the command-dataset size the paper reports (§IV).
const TotalTraceObjects = 128785

// DeviceTargets are the per-device trace-object totals from the Fig. 5(a)
// legend. They sum to TotalTraceObjects.
func DeviceTargets() map[string]int {
	return map[string]int{
		device.C9:      93231,
		device.Tecan:   16279,
		device.IKA:     11448,
		device.UR3e:    5460,
		device.Quantos: 2367,
	}
}

// NumSupervisedRuns is the number of supervised procedure runs (§IV).
const NumSupervisedRuns = 25

// RunInfo describes one supervised run, in Fig. 6 ID order: IDs 0–11 are
// Joystick Movements (P4), 12–16 Automated Solubility with N9 (P1), 17–20
// Automated Solubility with N9 and UR3e (P2), 21–24 Crystal Solubility (P3).
type RunInfo struct {
	ID        int
	Run       string
	Procedure string
	Anomalous bool
	Commands  int
	Note      string
}

// campaignRun is one supervised run of the campaign as Generate runs it:
// its procedure, the options that shape it, where it crashes or is
// stopped, and its note. No record carries a note, so Generate and
// FromRecords both take a run's note from here.
type campaignRun struct {
	kind string
	opts procedure.Options // newPlan sets Seed, Run and Quirks
	// fractions of the dry-run command count at which to crash or stop
	// (0 = none); a run that crashes ends in a hardware fault, the
	// campaign's anomalies.
	crashAt  float64
	crashDev string
	crashWhy string
	stopAt   float64
	note     string
}

// campaignRuns are the campaign's supervised runs by run ID, in Fig. 6
// order.
var campaignRuns = func() (runs [NumSupervisedRuns]campaignRun) {
	// IDs 0–11: joystick sessions of varying length.
	for id := 0; id < 12; id++ {
		runs[id] = campaignRun{kind: procedure.Joystick, note: "joystick session"}
	}
	copy(runs[12:], []campaignRun{
		// IDs 12–16: Automated Solubility with N9.
		{kind: procedure.P1, opts: procedure.Options{JoystickPrefix: 40, StopBeforeDosing: true},
			note: "used joystick to position N9; ran out of solid before dosing"},
		{kind: procedure.P1, opts: procedure.Options{Solid: "NABH4"}},
		{kind: procedure.P1, opts: procedure.Options{Solid: "CSTI"}},
		{kind: procedure.P1, opts: procedure.Options{Solid: "GENTISTIC"}},
		{kind: procedure.P1, opts: procedure.Options{Solid: "NABH4"},
			crashAt: 0.65, crashDev: device.Quantos, crashWhy: "front door crashed with the N9 robot",
			note: "ANOMALY: Quantos front door crashed with the robot"},
		// IDs 17–20: Automated Solubility with N9 and UR3e.
		{kind: procedure.P2, opts: procedure.Options{Solid: "NABH4"},
			crashAt: 0.08, crashDev: device.Quantos, crashWhy: "front door crashed into UR3e",
			note: "ANOMALY: Quantos front door crashed into UR3e at ~10%"},
		{kind: procedure.P2, opts: procedure.Options{Solid: "NABH4"}, stopAt: 0.10,
			note: "wrong gripper configuration; operator stopped at ~10%"},
		{kind: procedure.P2, opts: procedure.Options{Solid: "CSTI"}},
		{kind: procedure.P2, opts: procedure.Options{Solid: "GENTISTIC"}},
		// IDs 21–24: Crystal Solubility.
		{kind: procedure.P3},
		{kind: procedure.P3, crashAt: 0.97, crashDev: device.C9, crashWhy: "N9 arm crashed with the Tecan",
			note: "ANOMALY: arm crashed with the Tecan at the end"},
		{kind: procedure.P3},
		{kind: procedure.P3},
	})
	return runs
}()

// Config configures Generate.
type Config struct {
	// Seed drives the entire campaign deterministically.
	Seed uint64
	// Scale shrinks the unsupervised bulk (and the per-device targets) for
	// fast tests: 1.0 (or 0) generates the full 128,785-object dataset. The
	// 25 supervised runs are generated at every scale.
	Scale float64
	// Workers bounds how many shards generate concurrently; <= 0 selects
	// GOMAXPROCS. The output is byte-identical for every value.
	Workers int
}

// Dataset is the generated RAD.
type Dataset struct {
	// Store holds the command dataset in the canonical merged order.
	Store *store.MemStore
	// Runs are the 25 supervised runs in Fig. 6 ID order.
	Runs []RunInfo
	// PowerByRun holds the UR3e power capture of each supervised P2 run.
	PowerByRun map[string][]power.Sample
	// Targets are the (possibly scaled) per-device totals the generator
	// aimed for; at scale 1.0 these are the paper's numbers.
	Targets map[string]int
}

// shardSeed derives an independent, well-mixed PRNG seed for shard ord from
// the campaign seed (splitmix64 over a Weyl sequence, the standard recipe
// for splitting one seed into independent streams).
func shardSeed(seed, ord uint64) uint64 {
	z := seed + (ord+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// recordBefore is the canonical merge order's strict less: virtual
// timestamp only. Ties are resolved by parallel.Merge's shard-ordinal rule.
func recordBefore(a, b store.Record) bool { return a.Time.Before(b.Time) }

// Generate produces the synthetic RAD.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	workers := parallel.Workers(cfg.Workers)
	p := newPlan(cfg)

	ds := &Dataset{
		PowerByRun: make(map[string][]power.Sample),
		Targets:    scaledTargets(cfg.Scale),
	}

	// Stage 1+2: the supervised runs and the structured unsupervised
	// sessions are all independent shards; fan them out together.
	nSup, nStruct := len(p.supervised), len(p.structured)
	shards := make([][]store.Record, nSup+nStruct, nSup+nStruct+len(p.fills))
	supRes := make([]supResult, nSup)
	err := parallel.ForEach(nSup+nStruct, workers, func(i int) error {
		if i < nSup {
			res, err := p.runSupervised(p.supervised[i])
			if err != nil {
				return err
			}
			supRes[i] = res
			shards[i] = res.records
			return nil
		}
		recs, err := p.runStructured(p.structured[i-nSup])
		if err != nil {
			return err
		}
		shards[i] = recs
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, res := range supRes {
		ds.Runs = append(ds.Runs, res.info)
		if res.power != nil {
			ds.PowerByRun[res.info.Run] = res.power
		}
	}

	// Stage 3: top-up fill — land exactly on the per-device targets. The
	// deficit each device shard must cover is fixed by the shards above; at
	// small scales structured activity may already exceed a target and the
	// deficit clamps to zero (totals are exact at scale 1, asserted in
	// tests).
	counts := make(map[string]int)
	for _, shard := range shards {
		for _, r := range shard {
			counts[r.Device]++
		}
	}
	fillShards, err := parallel.Map(p.fills, workers, func(_ int, f fillSpec) ([]store.Record, error) {
		return p.runFill(f, ds.Targets[f.dev]-counts[f.dev])
	})
	if err != nil {
		return nil, err
	}
	shards = append(shards, fillShards...)

	// Fan-in: canonical ordered merge, then one batched append assigning
	// the final sequence numbers.
	ds.Store = store.NewMemStore()
	if err := ds.Store.AppendBatch(parallel.Merge(shards, recordBefore)); err != nil {
		return nil, fmt.Errorf("rad: merge shards: %w", err)
	}
	return ds, nil
}

func scaledTargets(scale float64) map[string]int {
	out := make(map[string]int, 5)
	for dev, n := range DeviceTargets() {
		out[dev] = int(math.Round(float64(n) * scale))
	}
	return out
}

// --- planning ---

// supSpec is one supervised run shard, fully planned.
type supSpec struct {
	campaignRun
	id      int
	labSeed uint64
	start   time.Time
}

// structSpec is one structured unsupervised session shard.
type structSpec struct {
	kind    string
	solid   string
	vials   int
	labSeed uint64
	start   time.Time
}

// fillSpec is one device's top-up stream shard.
type fillSpec struct {
	dev     string
	labSeed uint64
	start   time.Time
}

// plan is the serial planning pass: it walks the campaign calendar with the
// campaign RNG and assigns every shard its start instant, lab seed, and
// parameters. Planning consumes randomness in one fixed order, so the shard
// specs — and therefore the dataset — do not depend on how the shards are
// later scheduled.
type plan struct {
	cfg        Config
	supervised []supSpec
	structured []structSpec
	fills      []fillSpec
}

// schedule walks the campaign calendar the way the collection campaign
// spread sessions over its three-month window.
type schedule struct {
	rng *rand.Rand
	now time.Time
}

// nextDay moves the schedule to the morning of a later day. Matching the
// virtual clock's Set, time never moves backwards.
func (s *schedule) nextDay(days int) time.Time {
	target := s.now.Truncate(24 * time.Hour).Add(time.Duration(days)*24*time.Hour +
		time.Duration(8+s.rng.IntN(9))*time.Hour)
	if target.After(s.now) {
		s.now = target
	}
	return s.now
}

func newPlan(cfg Config) *plan {
	start := time.Date(2021, 9, 1, 9, 0, 0, 0, time.UTC)
	sched := &schedule{
		rng: rand.New(rand.NewPCG(cfg.Seed^0xabcd, cfg.Seed+0x1234)),
		now: start,
	}
	p := &plan{cfg: cfg}
	ord := uint64(0)
	nextSeed := func() uint64 { ord++; return shardSeed(cfg.Seed, ord) }

	// --- supervised runs (Fig. 6 ID order) ---
	runSeed := func(id int) uint64 { return cfg.Seed*1000 + uint64(id) + 1 }

	// Benign runs are not sterile: several contain operator quirks (manual
	// detours between phases) — the realistic irregularities behind the
	// perplexity IDS's false positives (Table I).
	quirks := map[int]int{2: 6, 5: 3, 9: 2, 13: 4, 19: 4, 23: 3}

	specs := make([]supSpec, NumSupervisedRuns)
	for id := range specs {
		sp := &specs[id]
		sp.campaignRun = campaignRuns[id]
		sp.id = id
		sp.opts.Seed = runSeed(id)
		sp.opts.Run = fmt.Sprintf("run-%d", id)
		sp.opts.Quirks = quirks[id]
		sp.labSeed = nextSeed()
		sp.start = sched.nextDay(1 + sched.rng.IntN(2))
	}
	p.supervised = specs

	// --- structured unsupervised sessions ---
	// Structured unlabeled activity, sized to stay safely under each
	// device's target so the top-up fill is always non-negative at scale 1.
	scale := p.cfg.Scale
	round := func(n float64) int { return int(math.Round(n * scale)) }
	nJoy, nP1, nP2, nP3 := round(40), round(20), round(10), round(8)
	solids := []string{"NABH4", "CSTI", "GENTISTIC"}
	for i := 0; i < nJoy; i++ {
		p.structured = append(p.structured, structSpec{kind: procedure.Joystick,
			labSeed: nextSeed(), start: sched.nextDay(sched.rng.IntN(2))})
	}
	for i := 0; i < nP1; i++ {
		p.structured = append(p.structured, structSpec{kind: procedure.P1,
			solid: solids[sched.rng.IntN(3)], vials: 1 + sched.rng.IntN(3),
			labSeed: nextSeed(), start: sched.nextDay(sched.rng.IntN(2))})
	}
	for i := 0; i < nP2; i++ {
		p.structured = append(p.structured, structSpec{kind: procedure.P2,
			solid: solids[sched.rng.IntN(3)], vials: 1 + sched.rng.IntN(2),
			labSeed: nextSeed(), start: sched.nextDay(sched.rng.IntN(2))})
	}
	for i := 0; i < nP3; i++ {
		p.structured = append(p.structured, structSpec{kind: procedure.P3,
			vials:   1 + sched.rng.IntN(3),
			labSeed: nextSeed(), start: sched.nextDay(sched.rng.IntN(2))})
	}

	// --- per-device top-up streams (device legend order) ---
	for _, dev := range device.Names() {
		p.fills = append(p.fills, fillSpec{dev: dev,
			labSeed: nextSeed(), start: sched.nextDay(1 + sched.rng.IntN(2))})
	}
	return p
}

// --- shard execution ---

// supResult is one supervised shard's output.
type supResult struct {
	info    RunInfo
	records []store.Record
	power   []power.Sample
}

// dryRunCommands measures how many commands a run issues by executing it on
// a scratch lab with the same per-run seed. Per-run seeds make the command
// sequence independent of surrounding lab state, so the measurement places
// crash and stop points deterministically.
func (p *plan) dryRunCommands(kind string, opts procedure.Options) (int, error) {
	scratch, err := procedure.NewVirtualLab(procedure.VirtualLabConfig{Seed: p.cfg.Seed ^ 0xdead})
	if err != nil {
		return 0, fmt.Errorf("rad: scratch lab: %w", err)
	}
	defer scratch.Close()
	res := procedure.Run(scratch.Lab, kind, opts)
	if res.Err != nil {
		return 0, fmt.Errorf("rad: dry run %s: %w", kind, res.Err)
	}
	return res.Commands, nil
}

// runSupervised executes one supervised run on its own shard lab, injecting
// the anomaly exactly where the paper's narrative places it.
func (p *plan) runSupervised(sp supSpec) (supResult, error) {
	if sp.crashAt > 0 || sp.stopAt > 0 {
		total, err := p.dryRunCommands(sp.kind, sp.opts)
		if err != nil {
			return supResult{}, err
		}
		if sp.crashAt > 0 {
			sp.opts.Crash = &procedure.CrashPlan{
				Device: sp.crashDev, Reason: sp.crashWhy,
				AfterCommands: int(sp.crashAt * float64(total)),
			}
		}
		if sp.stopAt > 0 {
			sp.opts.StopAfterCommands = int(sp.stopAt * float64(total))
		}
	}

	vl, err := procedure.NewVirtualLab(procedure.VirtualLabConfig{
		Start: sp.start, Seed: sp.labSeed, WithPower: sp.kind == procedure.P2,
	})
	if err != nil {
		return supResult{}, fmt.Errorf("rad: build shard lab: %w", err)
	}
	defer vl.Close()

	res := procedure.Run(vl.Lab, sp.kind, sp.opts)
	if res.Err != nil && !res.Anomalous && res.Err != procedure.Stopped {
		return supResult{}, fmt.Errorf("rad: supervised %s (%s): %w", sp.opts.Run, sp.kind, res.Err)
	}
	return supResult{
		info: RunInfo{
			ID: sp.id, Run: sp.opts.Run, Procedure: sp.kind,
			Anomalous: res.Anomalous, Commands: res.Commands, Note: sp.note,
		},
		records: vl.Sink.All(),
		power:   vl.Power(), // nil but for a P2: only its lab is built WithPower
	}, nil
}

// runStructured executes one unsupervised prototyping session on its own
// shard lab.
func (p *plan) runStructured(sp structSpec) ([]store.Record, error) {
	vl, err := procedure.NewVirtualLab(procedure.VirtualLabConfig{
		Start: sp.start, Seed: sp.labSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("rad: build shard lab: %w", err)
	}
	defer vl.Close()
	opts := procedure.Options{Unsupervised: true, Solid: sp.solid, Vials: sp.vials}
	if res := procedure.Run(vl.Lab, sp.kind, opts); res.Err != nil {
		return nil, fmt.Errorf("rad: unsupervised %s: %w", sp.kind, res.Err)
	}
	return vl.Sink.All(), nil
}

// runFill issues exactly deficit commands against one device, in bounded
// sessions spread across days like the rest of the campaign.
func (p *plan) runFill(sp fillSpec, deficit int) ([]store.Record, error) {
	if deficit <= 0 {
		return nil, nil
	}
	vl, err := procedure.NewVirtualLab(procedure.VirtualLabConfig{
		Start: sp.start, Seed: sp.labSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("rad: build shard lab: %w", err)
	}
	defer vl.Close()
	gaps := &schedule{rng: rand.New(rand.NewPCG(sp.labSeed^0xf111, sp.labSeed+0x0dd)), now: sp.start}
	for deficit > 0 {
		// Fill in bounded sessions: keeps each session realistic and
		// interleaves days like the serial campaign did.
		chunk := deficit
		if chunk > 2500 {
			chunk = 2500
		}
		n, err := procedure.FillDevice(vl.Lab, sp.dev, chunk)
		if err != nil {
			return nil, fmt.Errorf("rad: fill %s: %w", sp.dev, err)
		}
		deficit -= n
		gaps.now = vl.Clock.Now()
		vl.Clock.Set(gaps.nextDay(gaps.rng.IntN(2)))
	}
	return vl.Sink.All(), nil
}
