package fleet

import (
	"runtime"
	"testing"
	"time"
)

// digests runs a campaign and returns each tenant's digest by ID, failing
// the test on any lost record or tenant error.
func digests(t *testing.T, cfg CampaignConfig) map[string]string {
	t.Helper()
	cfg.DLQRoot = t.TempDir()
	c, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(res.Tenants))
	for _, tr := range res.Tenants {
		if tr.Lost != 0 {
			t.Fatalf("tenant %s lost %d of %d records", tr.ID, tr.Lost, tr.Requests)
		}
		out[tr.ID] = tr.Digest
	}
	return out
}

// TestFleetTenantDeterminism is the heart of the isolation guarantee: the
// same tenant seed produces byte-identical records regardless of how many
// co-tenants run alongside it, at what concurrency, in which creation
// order.
func TestFleetTenantDeterminism(t *testing.T) {
	const seed, requests = 42, 120

	// Baseline: 4 tenants.
	a := digests(t, CampaignConfig{Tenants: 4, Requests: requests, Seed: seed, Faults: true})

	// Same campaign again: identical digests (byte-reproducible per seed).
	b := digests(t, CampaignConfig{Tenants: 4, Requests: requests, Seed: seed, Faults: true})
	for id, d := range a {
		if b[id] != d {
			t.Fatalf("tenant %s: same config produced different digests\n  %s\n  %s", id, d, b[id])
		}
	}

	// 6x the co-tenants, saturating GOMAXPROCS with different
	// interleavings: the original 4 tenants' digests must not move.
	c := digests(t, CampaignConfig{Tenants: 24, Requests: requests, Seed: seed, Faults: true})
	for id, d := range a {
		if c[id] != d {
			t.Fatalf("tenant %s: digest changed when co-tenants were added\n  %s\n  %s", id, d, c[id])
		}
	}

	// Sanity: the extra tenants are real, distinct workloads.
	seen := make(map[string]bool)
	for _, d := range c {
		if seen[d] {
			t.Fatal("two tenants produced identical digests — seeds are not independent")
		}
		seen[d] = true
	}

	// A different campaign seed is a different fleet.
	d := digests(t, CampaignConfig{Tenants: 4, Requests: requests, Seed: seed + 1, Faults: true})
	for id := range a {
		if d[id] == a[id] {
			t.Fatalf("tenant %s: different campaign seed produced an identical digest", id)
		}
	}

	// Fewer-core interleaving: determinism must not depend on parallelism.
	prev := runtime.GOMAXPROCS(2)
	e := digests(t, CampaignConfig{Tenants: 4, Requests: requests, Seed: seed, Faults: true})
	runtime.GOMAXPROCS(prev)
	for id, dg := range a {
		if e[id] != dg {
			t.Fatalf("tenant %s: digest changed with GOMAXPROCS=2", id)
		}
	}
}

// TestFleetCampaignHundredsOfTenants is the ISSUE 7 acceptance campaign: a
// 200+-tenant concurrent fleet on simclock completes with zero lost
// records under the chaos fault profile (per-tenant DLQ detours included),
// and every tenant's output is byte-reproducible per seed.
func TestFleetCampaignHundredsOfTenants(t *testing.T) {
	const tenants, requests, seed = 220, 40, 1022

	start := time.Now()
	a := digests(t, CampaignConfig{Tenants: tenants, Requests: requests, Seed: seed, Faults: true})
	elapsed := time.Since(start)
	if len(a) != tenants {
		t.Fatalf("campaign ran %d tenants, want %d", len(a), tenants)
	}
	t.Logf("%d tenants × %d requests in %v", tenants, requests, elapsed)

	// Byte-reproducible per tenant seed: rerun the whole fleet and compare
	// every digest.
	b := digests(t, CampaignConfig{Tenants: tenants, Requests: requests, Seed: seed, Faults: true})
	for id, d := range a {
		if b[id] != d {
			t.Fatalf("tenant %s: rerun produced a different digest", id)
		}
	}
}

// TestFleetCampaignFaultAccounting checks the failure-path bookkeeping at
// fleet scale: the storm actually spilled somewhere, every spill was
// drained back, and the router's aggregate view is consistent with the
// per-tenant outcomes.
func TestFleetCampaignFaultAccounting(t *testing.T) {
	cfg := CampaignConfig{Tenants: 32, Requests: 100, Seed: 7, Faults: true, DLQRoot: t.TempDir()}
	c, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	var spilled, drained uint64
	for _, tr := range res.Tenants {
		if tr.Lost != 0 {
			t.Fatalf("tenant %s lost %d records", tr.ID, tr.Lost)
		}
		if tr.Spilled != tr.Drained {
			t.Fatalf("tenant %s: spilled %d, drained %d", tr.ID, tr.Spilled, tr.Drained)
		}
		spilled += tr.Spilled
		drained += tr.Drained
	}
	if spilled == 0 {
		t.Fatal("no tenant ever spilled — the flaky sink never fired")
	}
	if res.Lost != 0 {
		t.Fatalf("fleet lost %d records", res.Lost)
	}
	if res.Fleet.Tenants != cfg.Tenants {
		t.Fatalf("router saw %d tenants, want %d", res.Fleet.Tenants, cfg.Tenants)
	}
	want := uint64(cfg.Tenants * (cfg.Requests + len(campaignDevices)))
	if res.Fleet.Routed != want {
		t.Fatalf("routed %d requests, want %d", res.Fleet.Routed, want)
	}
	t.Logf("32 tenants: %d records, %d spilled through per-tenant DLQs, %d drained back", res.Records, spilled, drained)
}
