package fleet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/middlebox"
	"rad/internal/obs/span"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/wire"
)

// TestFleetTracedCampaignDigests pins the acceptance guarantee that the
// span flight recorder never perturbs the dataset: a fault-injected fleet
// campaign with tracing on produces per-tenant digests byte-identical to
// the untraced run and to a traced rerun. Trace ids live outside the
// record codec and the digest, so this holds by construction — the test
// keeps it that way.
func TestFleetTracedCampaignDigests(t *testing.T) {
	const seed, tenants, requests = 42, 6, 60

	untraced := digests(t, CampaignConfig{Tenants: tenants, Requests: requests, Seed: seed, Faults: true})

	rec := span.NewRecorder(span.Config{Seed: seed, Buffer: 1024})
	traced := digests(t, CampaignConfig{Tenants: tenants, Requests: requests, Seed: seed, Faults: true, Spans: rec})
	for id, d := range untraced {
		if traced[id] != d {
			t.Fatalf("tenant %s: tracing changed the digest\n  untraced %s\n  traced   %s", id, d, traced[id])
		}
	}
	if st := rec.Stats(); st.Recorded == 0 {
		t.Fatal("traced campaign recorded no spans — the recorder was not wired through")
	}
	// The recorder tags spans per tenant, so the router-facing rollups see
	// every lab.
	rollups := rec.Rollup()
	byTenant := make(map[string]span.TenantRollup, len(rollups))
	for _, r := range rollups {
		byTenant[r.Tenant] = r
	}
	for i := 0; i < tenants; i++ {
		if byTenant[TenantID(i)].Spans == 0 {
			t.Fatalf("tenant %s has no spans in the rollup", TenantID(i))
		}
	}

	// A traced rerun with a fresh recorder reproduces both the digests and
	// the span accounting (seeded id stream, deterministic sampler).
	rec2 := span.NewRecorder(span.Config{Seed: seed, Buffer: 1024})
	again := digests(t, CampaignConfig{Tenants: tenants, Requests: requests, Seed: seed, Faults: true, Spans: rec2})
	for id, d := range traced {
		if again[id] != d {
			t.Fatalf("tenant %s: traced rerun digest moved\n  %s\n  %s", id, d, again[id])
		}
	}
	if a, b := rec.Stats().Recorded, rec2.Stats().Recorded; a != b {
		t.Fatalf("traced reruns recorded different span counts: %d vs %d", a, b)
	}
}

// TestFleetTracedMixedWireDigests drives a pair of traced TCP clients
// through ONE traced fleet listener — each on its own tenant so per-tenant
// record streams stay single-writer — and asserts the whole thing is
// byte-reproducible: rerunning the storm yields identical per-tenant
// digests, with the server stitching wire, exec, and client trace-context
// spans the entire time.
func TestFleetTracedMixedWireDigests(t *testing.T) {
	runStorm := func() (map[string]string, *span.Recorder) {
		rec := span.NewRecorder(span.Config{Seed: 7, Buffer: 1024})
		mems := &sync.Map{}
		r, err := NewRouter(Config{Factory: func(id string) (*Resources, error) {
			clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
			mem := store.NewMemStore()
			mems.Store(id, mem)
			core := middlebox.NewCore(clock, mem)
			core.SetSpans(rec, id)
			core.Register(c9.New(device.NewEnv(clock, TenantSeed(1, id))))
			return &Resources{Core: core}, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		srv := middlebox.NewHandlerServer(r, middlebox.NetworkProfile{}, 1)
		srv.SetSpans(rec)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		clients := []string{"lab-a", "lab-b"}
		var wg sync.WaitGroup
		errs := make(chan error, len(clients))
		for ci, tenant := range clients {
			wg.Add(1)
			go func(ci int, tenant string) {
				defer wg.Done()
				conn, wc, err := wire.Dial(addr, nil)
				if err != nil {
					errs <- err
					return
				}
				defer conn.Close()
				exec := func(id uint64, name string, args ...string) error {
					req := wire.Request{
						ID: id, Op: wire.OpExec, Tenant: tenant,
						Device: "C9", Name: name, Args: args,
						Run: "storm-" + tenant,
						// Trace ids are distinct per client; span ids repeat,
						// scoped by their trace.
						TraceID: uint64(1000*(ci+1)) + id, SpanID: uint64(2000) + id,
					}
					if err := wc.WriteFrame(req); err != nil {
						return err
					}
					var rep wire.Reply
					return wc.ReadFrame(&rep)
				}
				if err := exec(0, device.Init); err != nil {
					errs <- fmt.Errorf("client %d init: %w", ci, err)
					return
				}
				for i := 1; i <= 20; i++ {
					if err := exec(uint64(i), "MVNG"); err != nil {
						errs <- fmt.Errorf("client %d exec %d: %w", ci, i, err)
						return
					}
				}
			}(ci, tenant)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		out := make(map[string]string)
		mems.Range(func(k, v any) bool {
			out[k.(string)] = recordsDigest(v.(*store.MemStore).All())
			return true
		})
		return out, rec
	}

	first, rec := runStorm()
	if len(first) != 2 {
		t.Fatalf("expected 2 tenant stores, got %d", len(first))
	}

	// The server stitched trees for both clients: every root is a
	// server.request span with a middlebox.exec child, and the clients'
	// remote context made their roots children of the client's span ids.
	stitched, remoteParented := 0, 0
	for _, root := range rec.Roots(span.Filter{Limit: 0}) {
		if root.Span.Name != "server.request" {
			continue
		}
		for _, c := range root.Children {
			if c.Span.Name == "middlebox.exec" {
				stitched++
			}
		}
		if root.Span.ParentID >= 2000 && root.Span.ParentID <= 2020 {
			remoteParented++
		}
	}
	if stitched == 0 {
		t.Fatal("no server.request root has a middlebox.exec child — trees did not stitch")
	}
	if remoteParented == 0 {
		t.Fatal("no server root adopted a client's trace context")
	}
	if rollups := rec.Rollup(); len(rollups) < 2 {
		t.Fatalf("expected per-tenant rollups for both labs, got %+v", rollups)
	}

	second, _ := runStorm()
	for id, d := range first {
		if second[id] != d {
			t.Fatalf("tenant %s: traced rerun digest moved\n  %s\n  %s", id, d, second[id])
		}
	}
}
