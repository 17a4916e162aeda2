package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/device/ika"
	"rad/internal/device/quantos"
	"rad/internal/device/tecan"
	"rad/internal/device/ur3e"
	"rad/internal/fault"
	"rad/internal/middlebox"
	"rad/internal/obs/span"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/wire"
)

// Campaign drives hundreds of concurrent tenant workloads through one
// fleet Router, each lab on its own virtual clock with its own
// deterministic seed.
//
// Determinism is the point: every piece of state a tenant's trace depends
// on — clock, devices, fault wrappers, driver PRNG, store, dead-letter
// queue — is per-tenant, and each tenant's seed derives purely from the
// campaign seed and the tenant's ID (never from creation order), so one
// tenant's output is byte-identical no matter how many co-tenants run, in
// what order, or on how many OS threads. The only shared state is the
// router's tenant table and the atomic rollups, which carry no
// randomness.
type Campaign struct {
	cfg    CampaignConfig
	Router *Router
	labs   *sync.Map // tenant ID -> *campaignLab, for the heal/drain phase

	stopOnce sync.Once
	stop     chan struct{}
}

// CampaignConfig parameterizes a fleet campaign.
type CampaignConfig struct {
	// Tenants is the number of concurrent labs (default 8).
	Tenants int
	// Requests is the per-tenant command count after device init
	// (default 50).
	Requests int
	// Seed is the campaign seed; each tenant's seed is derived from it and
	// the tenant's ID.
	Seed uint64
	// Faults, when true, runs each lab under the chaos fault profile with
	// a flaky store spilling to a per-tenant dead-letter queue; the drive
	// then heals every lab and drains its dead letters back, asserting
	// at-least-once recovery.
	Faults bool
	// DLQRoot is the directory tenant DLQs are namespaced under; required
	// when Faults is set.
	DLQRoot string
	// Spans, when set, attaches the span flight recorder to every tenant
	// core. Tracing must not perturb the dataset: span ids and ring state
	// live outside the record codec and digests, so a traced campaign's
	// per-tenant digests are byte-identical to an untraced one's.
	Spans *span.Recorder
}

// TenantResult is one lab's campaign outcome.
type TenantResult struct {
	ID       string
	Stopped  bool   // storm cut short by Campaign.Stop (heal/drain still ran)
	Requests int    // requests issued (device inits included)
	Records  int    // records in the lab's store after DLQ drain
	Lost     int    // Requests - Records (0 on success)
	Spilled  uint64 // records that detoured through the dead-letter queue
	Drained  uint64 // records drained back after healing
	Digest   string // sha256 over the lab's full record log
	Err      error  // factory/drain failure, nil on success
}

// CampaignResult aggregates every lab's outcome.
type CampaignResult struct {
	Tenants []TenantResult // sorted by ID (the order tenants were named)
	Records int
	Lost    int
	Fleet   Stats
}

// campaignLab is the per-tenant state the factory builds and the driver
// heals after the storm.
type campaignLab struct {
	clock *simclock.Virtual
	mem   *store.MemStore
	flaky *fault.FlakySink
	dlq   *store.DeadLetterQueue
	devs  []*fault.FaultyDevice
}

// campaignEpoch anchors every lab's virtual clock; the instant is
// arbitrary but must be constant for reproducibility.
var campaignEpoch = time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC)

// campaignDevices and campaignCommands mirror the chaos soak's command
// mix: a blend of read-only (retriable) and mutating commands from each
// device's real catalog.
var campaignDevices = []string{"C9", "IKA", "Quantos", "Tecan", "UR3e"}

var campaignCommands = map[string][][]string{
	"C9":      {{"MVNG"}, {"POSN", "0"}, {"CURR", "0"}, {"SPED", "20"}, {"GRIP", "1"}, {"HOME"}},
	"IKA":     {{"IN_NAME"}, {"IN_PV_4"}, {"IN_SP_4"}, {"OUT_SP_4", "300"}, {"START_4"}, {"STOP_4"}},
	"Tecan":   {{"Q"}, {"V", "1000"}, {"I", "1"}, {"O", "1"}, {"Z"}},
	"Quantos": {{"zero"}, {"target_mass", "12.5"}, {"home_z_stage"}, {"move_z_axis", "10"}},
	"UR3e":    {{"open_gripper"}, {"close_gripper"}, {"move_joints", "10", "20", "30", "40", "50", "60"}},
}

// TenantID names the i-th campaign lab.
func TenantID(i int) string { return fmt.Sprintf("lab-%04d", i) }

// TenantSeed derives a lab's seed from the campaign seed and its ID alone
// — a pure function of (seed, id), independent of creation order or
// co-tenant count, which is what makes per-tenant reruns byte-identical
// under any interleaving.
func TenantSeed(campaignSeed uint64, id string) uint64 {
	x := campaignSeed ^ fnv1a(id)
	// splitmix64 finalizer: adjacent campaign seeds must not produce
	// correlated tenant streams.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// Stop asks every tenant driver to end its storm after the in-flight
// request: the graceful-drain half of a SIGTERM. Drivers still heal their
// labs, drain their dead-letter queues, and digest their records, so a
// stopped campaign reports a complete (just shorter) result. Idempotent
// and safe before/during/after Run.
func (c *Campaign) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
}
func NewCampaign(cfg CampaignConfig) (*Campaign, error) {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 8
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 50
	}
	if cfg.Faults && cfg.DLQRoot == "" {
		return nil, fmt.Errorf("fleet: campaign with faults needs a DLQRoot for the per-tenant dead-letter queues")
	}
	c := &Campaign{cfg: cfg, stop: make(chan struct{})}
	labs := &sync.Map{} // tenant ID -> *campaignLab
	router, err := NewRouter(Config{
		Factory:    func(id string) (*Resources, error) { return c.buildLab(id, labs) },
		MaxTenants: cfg.Tenants + 1, // + the default tenant, should anyone dial untagged
	})
	if err != nil {
		return nil, err
	}
	c.Router = router
	c.labs = labs
	return c, nil
}

// buildLab is the campaign's tenant factory: one virtual clock, five
// fault-wrapped devices initialized while healthy, a store behind
// dead-letter failover when faults are on, and the hardened exec policy.
func (c *Campaign) buildLab(id string, labs *sync.Map) (*Resources, error) {
	seed := TenantSeed(c.cfg.Seed, id)
	lab := &campaignLab{
		clock: simclock.NewVirtual(campaignEpoch),
		mem:   store.NewMemStore(),
	}

	var sink store.Sink = lab.mem
	res := &Resources{}
	if c.cfg.Faults {
		dlq, err := store.OpenTenantDLQ(c.cfg.DLQRoot, id)
		if err != nil {
			return nil, err
		}
		lab.dlq = dlq
		res.DLQ = dlq
		lab.flaky = fault.WrapSink(lab.mem, fault.Profile{SinkErrProb: 0.10}, seed^0xa5a5)
		sink = store.NewFailoverSink(lab.flaky, dlq)
	}

	core := middlebox.NewCore(lab.clock, sink)
	core.SetSpans(c.cfg.Spans, id)
	for i, name := range campaignDevices {
		env := device.NewEnv(lab.clock, seed+uint64(i))
		var dev device.Device
		switch name {
		case "C9":
			dev = c9.New(env)
		case "IKA":
			dev = ika.New(env)
		case "Tecan":
			dev = tecan.New(env)
		case "Quantos":
			dev = quantos.New(env)
		case "UR3e":
			dev = ur3e.New(env, nil)
		}
		f := fault.WrapDevice(dev, lab.clock, fault.None(), seed+100+uint64(i))
		lab.devs = append(lab.devs, f)
		core.Register(f)
	}
	core.SetExecPolicy(middlebox.ExecPolicy{
		Timeout:   20 * time.Second,
		Retries:   2,
		RetrySeed: seed,
		Breaker:   fault.BreakerConfig{Threshold: 3, Cooldown: 2 * time.Minute, Probes: 1},
	})
	res.Core = core
	labs.Store(id, lab)
	return res, nil
}

// Run drives every tenant's workload concurrently through the router and
// returns the per-tenant outcomes. Each tenant is driven by one goroutine
// issuing its requests sequentially — the lab's virtual clock makes the
// whole workload run in microseconds of wall time regardless of how much
// virtual time the storm consumes.
func (c *Campaign) Run() (*CampaignResult, error) {
	results := make([]TenantResult, c.cfg.Tenants)
	var wg sync.WaitGroup
	for i := 0; i < c.cfg.Tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.runTenant(TenantID(i))
		}(i)
	}
	wg.Wait()

	out := &CampaignResult{Tenants: results, Fleet: c.Router.Snapshot()}
	var firstErr error
	for _, r := range results {
		out.Records += r.Records
		out.Lost += r.Lost
		if r.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet: tenant %s: %w", r.ID, r.Err)
		}
	}
	return out, firstErr
}

// runTenant executes one lab's full workload: init the devices while the
// lab is healthy, unleash the fault profile, drive the seeded command
// stream, then heal the store and drain the dead letters back in.
func (c *Campaign) runTenant(id string) TenantResult {
	res := TenantResult{ID: id}
	seed := TenantSeed(c.cfg.Seed, id)

	// First tenant-tagged request instantiates the lab through the router,
	// exactly as a wire peer would.
	reqID := uint64(0)
	exec := func(dev, name string, args ...string) wire.Reply {
		reqID++
		return c.Router.Handle(wire.Request{
			ID: reqID, Op: wire.OpExec, Tenant: id,
			Device: dev, Name: name, Args: args,
			Run: "fleet-" + id,
		})
	}

	for _, name := range campaignDevices {
		if r := exec(name, device.Init); r.Error != "" {
			res.Err = fmt.Errorf("%s init: %s", name, r.Error)
			return res
		}
		res.Requests++
	}
	v, ok := c.labs.Load(id)
	if !ok {
		res.Err = fmt.Errorf("lab not built")
		return res
	}
	lab := v.(*campaignLab)

	if c.cfg.Faults {
		profile := fault.Chaos()
		profile.SinkErrProb = 0 // the sink has its own wrapper
		for _, f := range lab.devs {
			f.SetProfile(profile)
		}
	}

	driver := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	for i := 0; i < c.cfg.Requests; i++ {
		select {
		case <-c.stop:
			// Graceful drain: stop issuing new work, but fall through to the
			// heal/DLQ-drain/digest phase so every request already issued is
			// still accounted for — the zero-loss invariant holds over the
			// shortened storm.
			res.Stopped = true
		default:
		}
		if res.Stopped {
			break
		}
		name := campaignDevices[driver.IntN(len(campaignDevices))]
		cmds := campaignCommands[name]
		cmd := cmds[driver.IntN(len(cmds))]
		exec(name, cmd[0], cmd[1:]...)
		res.Requests++
	}

	// The storm passes: heal the store and fold the dead letters back in.
	if lab.flaky != nil {
		lab.flaky.SetProfile(fault.None())
	}
	if lab.dlq != nil {
		drained, err := lab.dlq.Drain(lab.mem.AppendBatch)
		if err != nil {
			res.Err = fmt.Errorf("drain: %w", err)
			return res
		}
		res.Drained = uint64(drained)
		res.Spilled = lab.dlq.Stats().SpilledRecords
	}

	res.Records = lab.mem.Len()
	res.Lost = res.Requests - res.Records
	res.Digest = recordsDigest(lab.mem.All())
	return res
}

// recordsDigest hashes a lab's complete record log — the byte-level
// identity the determinism guarantee is stated over.
func recordsDigest(recs []store.Record) string {
	h := sha256.New()
	for _, r := range recs {
		fmt.Fprintf(h, "%d|%d|%d|%s|%s|%v|%s|%s|%s|%s\n",
			r.Seq, r.Time.UnixNano(), r.EndTime.UnixNano(),
			r.Device, r.Name, r.Args, r.Response, r.Exception, r.Mode, r.Run)
	}
	return hex.EncodeToString(h.Sum(nil))
}
