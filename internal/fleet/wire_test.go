package fleet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/middlebox"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/wire"
)

// TestFleetMixedWireVersions runs a mixed client fleet — tenant-tagged and
// untagged — against ONE fleet listener concurrently. Tagged clients must
// land on their own labs, untagged clients on the default lab, and no
// record may cross a tenant boundary.
func TestFleetMixedWireVersions(t *testing.T) {
	mems := &sync.Map{} // tenant ID -> *store.MemStore
	r, err := NewRouter(Config{Factory: func(id string) (*Resources, error) {
		clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
		mem := store.NewMemStore()
		mems.Store(id, mem)
		core := middlebox.NewCore(clock, mem)
		core.Register(c9.New(device.NewEnv(clock, TenantSeed(1, id))))
		return &Resources{Core: core}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv := middlebox.NewHandlerServer(r, middlebox.NetworkProfile{}, 1)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Six concurrent clients, two per tenant tag (the first pair untagged),
	// every one uploading DIRECT-mode traces stamped with its own client
	// label.
	clients := []string{"", "", "lab-0001", "lab-0001", "lab-0002", "lab-0002"}
	const uploads = 16

	var wg sync.WaitGroup
	errs := make(chan error, len(clients))
	for ci, tenant := range clients {
		wg.Add(1)
		go func(ci int, tenant string) {
			defer wg.Done()
			conn, wc, err := wire.Dial(addr, nil)
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", ci, err)
				return
			}
			defer conn.Close()
			for i := 0; i < uploads; i++ {
				req := wire.Request{
					ID: uint64(i), Op: wire.OpTrace, Tenant: tenant,
					Device: "C9", Name: "ARM",
					Args:       []string{fmt.Sprintf("client-%d", ci)},
					Value:      "ok",
					StartNanos: int64(1000 + i), EndNanos: int64(2000 + i),
					Run: fmt.Sprintf("client-%d", ci),
				}
				if err := wc.WriteFrame(req); err != nil {
					errs <- fmt.Errorf("client %d upload %d: %w", ci, i, err)
					return
				}
				var rep wire.Reply
				if err := wc.ReadFrame(&rep); err != nil {
					errs <- fmt.Errorf("client %d upload %d: read reply: %w", ci, i, err)
					return
				}
				if rep.Error != "" {
					errs <- fmt.Errorf("client %d upload %d: server error %q", ci, i, rep.Error)
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

	// Every lab holds exactly its own clients' records and nobody else's.
	wantByTenant := map[string]map[string]int{
		DefaultTenant: {"client-0": uploads, "client-1": uploads},
		"lab-0001":    {"client-2": uploads, "client-3": uploads},
		"lab-0002":    {"client-4": uploads, "client-5": uploads},
	}
	for tenant, want := range wantByTenant {
		v, ok := mems.Load(tenant)
		if !ok {
			t.Fatalf("tenant %s was never instantiated", tenant)
		}
		got := make(map[string]int)
		for _, rec := range v.(*store.MemStore).All() {
			got[rec.Run]++
		}
		if len(got) != len(want) {
			t.Fatalf("tenant %s holds runs %v, want %v", tenant, got, want)
		}
		for run, n := range want {
			if got[run] != n {
				t.Fatalf("tenant %s: run %s has %d records, want %d", tenant, run, got[run], n)
			}
		}
	}
	st := r.Snapshot()
	if st.Tenants != 3 {
		t.Fatalf("router instantiated %d tenants, want 3", st.Tenants)
	}
	if st.Routed != uint64(len(clients)*uploads) {
		t.Fatalf("routed = %d, want %d", st.Routed, len(clients)*uploads)
	}
}

// TestFleetStreamTenantRouting wires the router into a stream tail
// listener: a tenant-tagged Subscribe must receive exactly its own lab's
// live records, an untagged one the default lab's, and a tenant the
// resolver refuses gets a precise error event.
func TestFleetStreamTenantRouting(t *testing.T) {
	r, err := NewRouter(Config{Factory: func(id string) (*Resources, error) {
		clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
		mem := store.NewMemStore()
		broker := stream.NewBroker()
		core := middlebox.NewCore(clock, mem)
		core.AttachBroker(broker)
		core.Register(c9.New(device.NewEnv(clock, TenantSeed(1, id))))
		return &Resources{Core: core, Broker: broker, Close: func() error { broker.Close(); return nil }}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	tailSrv := stream.NewServer(nil, nil) // no default broker: tenant-only listener
	tailSrv.SetTenantResolver(r.ResolveStream)
	addr, err := tailSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tailSrv.Close()

	// Instantiate two labs, then subscribe to one of them.
	for _, id := range []string{"lab-0001", "lab-0002"} {
		if rep := r.Handle(wire.Request{ID: 1, Op: wire.OpExec, Tenant: id, Device: "C9", Name: device.Init}); rep.Error != "" {
			t.Fatalf("%s init: %s", id, rep.Error)
		}
	}
	cl, err := stream.Dial(addr, wire.Subscribe{Tenant: "lab-0001", Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Give the subscription time to attach before publishing.
	time.Sleep(50 * time.Millisecond)

	// Traffic on both labs; only lab-0001's must reach the tailer.
	for i := 0; i < 5; i++ {
		for _, id := range []string{"lab-0001", "lab-0002"} {
			req := wire.Request{ID: uint64(10 + i), Op: wire.OpExec, Tenant: id, Device: "C9", Name: "MVNG", Run: "run-" + id}
			if rep := r.Handle(req); rep.Error != "" {
				t.Fatalf("%s exec: %s", id, rep.Error)
			}
		}
	}
	for i := 0; i < 5; i++ {
		ev, err := cl.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if ev.Record == nil || ev.Record.Run != "run-lab-0001" {
			t.Fatalf("event %d leaked across tenants: %+v", i, ev)
		}
	}

	// A lab without a broker (or a refused tenant) is a precise error.
	bad, err := stream.Dial(addr, wire.Subscribe{Tenant: "../escape"})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Recv(); err == nil {
		t.Fatal("hostile tenant subscription was accepted")
	}
}

// TestFleetTenantFloodOnOneConnection presents 5,000 distinct tenant IDs
// over one TCP connection to a router capped at 16 tenants. The router's
// MaxTenants is the bound on per-tenant state: the first 16 labs answer,
// every later tenant draws the router's limit error, and the connection,
// which keeps nothing per tenant, still serves an admitted tenant after
// the flood.
func TestFleetTenantFloodOnOneConnection(t *testing.T) {
	const maxTenants, flood = 16, 5000
	r, err := NewRouter(Config{MaxTenants: maxTenants, Factory: testFactory(t)})
	if err != nil {
		t.Fatal(err)
	}
	srv := middlebox.NewHandlerServer(r, middlebox.NetworkProfile{}, 1)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, wc, err := wire.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exec := func(id uint64, tenant string) wire.Reply {
		t.Helper()
		if err := wc.WriteFrame(execReq(id, tenant)); err != nil {
			t.Fatalf("request %d: %v", id, err)
		}
		var rep wire.Reply
		if err := wc.ReadFrame(&rep); err != nil {
			t.Fatalf("request %d: read reply: %v", id, err)
		}
		return rep
	}

	limitErr := fmt.Sprintf("fleet: tenant limit reached (%d)", maxTenants)
	answered := 0
	for i := 0; i < flood; i++ {
		rep := exec(uint64(i), fmt.Sprintf("flood-%05d", i))
		switch {
		case i < maxTenants && rep.Error == "":
			answered++
		case i >= maxTenants && rep.Error == limitErr:
		default:
			t.Fatalf("tenant %d answered %q", i, rep.Error)
		}
	}
	if answered != maxTenants {
		t.Fatalf("%d labs answered, want %d", answered, maxTenants)
	}
	if rep := exec(flood, "flood-00003"); rep.Error != "" {
		t.Fatalf("admitted tenant after the flood: %s", rep.Error)
	}
	st := r.Snapshot()
	if st.Tenants != maxTenants || st.Rejected != flood-maxTenants || st.Routed != maxTenants+1 {
		t.Fatalf("snapshot = %d tenants, %d rejected, %d routed; want %d, %d, %d",
			st.Tenants, st.Rejected, st.Routed, maxTenants, flood-maxTenants, maxTenants+1)
	}
}
