package fleet

// Fleet-layer session-resilience tests: router drain and tenant-tagged
// resilient tails across a stream-listener restart.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/middlebox"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/wire"
)

// streamFactory builds tenants with a live broker over a persistent store,
// the shape radmiddlebox -fleet -stream -store runs.
func streamFactory(tb testing.TB) Factory {
	tb.Helper()
	return func(id string) (*Resources, error) {
		clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
		db, err := tracedb.Open(tb.TempDir(), tracedb.Options{})
		if err != nil {
			return nil, err
		}
		broker := stream.NewBroker()
		broker.AttachStore(db)
		res := &Resources{Core: tenantCore(clock, db, id), Broker: broker, DB: db}
		res.Close = func() error { broker.Close(); return db.Close() }
		return res, nil
	}
}

func tenantCore(clock *simclock.Virtual, sink store.Sink, id string) *middlebox.Core {
	core := middlebox.NewCore(clock, sink)
	core.Register(c9.New(device.NewEnv(clock, TenantSeed(7, id))))
	return core
}

// TestFleetRouterDrainQuiescesTenants: Drain visits every tenant — brokers
// close (their subscribers' tails end) and stores write every staged record
// to disk — and a second Close stays a harmless teardown.
func TestFleetRouterDrainQuiescesTenants(t *testing.T) {
	r, err := NewRouter(Config{Factory: streamFactory(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	tenants := []string{"lab-a", "lab-b", "lab-c"}
	dbs := make([]*tracedb.DB, len(tenants))
	for i, id := range tenants {
		if reply := r.Handle(execReq(uint64(i), id)); reply.Error != "" {
			t.Fatalf("exec %s: %s", id, reply.Error)
		}
		if _, dbs[i], err = r.ResolveStream(id); err != nil {
			t.Fatal(err)
		}
		if on, all := dbs[i].Lifecycle().Records, dbs[i].Len(); on == all {
			t.Fatalf("tenant %s: all %d records on disk before drain; want some staged", id, all)
		}
	}
	// A live subscriber on one tenant's broker: drain must end its feed.
	broker, _, err := r.ResolveStream("lab-a")
	if err != nil {
		t.Fatal(err)
	}
	sub := broker.Subscribe(stream.SubOptions{Name: "draintest", Buffer: 8})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, db := range dbs {
		if on, all := db.Lifecycle().Records, db.Len(); on != all {
			t.Fatalf("tenant %s: %d of %d records on disk after drain", tenants[i], on, all)
		}
	}
	if _, ok := sub.Recv(); ok {
		t.Fatal("subscriber still live after fleet drain")
	}
}

// TestFleetRouterDrainHonorsContext: a context already done makes Drain
// return its error without quiescing any tenant, so the subscriber stays
// live.
func TestFleetRouterDrainHonorsContext(t *testing.T) {
	r, err := NewRouter(Config{Factory: streamFactory(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if reply := r.Handle(execReq(1, "lab-a")); reply.Error != "" {
		t.Fatal(reply.Error)
	}
	broker, _, err := r.ResolveStream("lab-a")
	if err != nil {
		t.Fatal(err)
	}
	broker.Subscribe(stream.SubOptions{Name: "live", Buffer: 8})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain returned %v, want context canceled", err)
	}
	if got := len(broker.Stats()); got != 1 {
		t.Fatalf("%d live subscribers after a cancelled drain, want 1", got)
	}
}

// TestFleetRouterDrainReleasesGoroutines: build/route/drain/close cycles
// across multi-tenant routers return to the baseline goroutine count.
func TestFleetRouterDrainReleasesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		r, err := NewRouter(Config{Factory: streamFactory(t)})
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range []string{"a", "b", "c", "d"} {
			if reply := r.Handle(execReq(uint64(i), id)); reply.Error != "" {
				t.Fatal(reply.Error)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := r.Drain(ctx); err != nil {
			t.Fatalf("round %d drain: %v", round, err)
		}
		cancel()
		if err := r.Close(); err != nil {
			t.Fatalf("round %d close: %v", round, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestReconnectTenantTailAcrossListenerRestart: a tenant-tagged
// ResilientTail subscribed through the fleet resolver survives the stream
// listener dying and coming back — it renegotiates, resumes from its
// cursor, and sees each tenant record exactly once.
func TestReconnectTenantTailAcrossListenerRestart(t *testing.T) {
	r, err := NewRouter(Config{Factory: streamFactory(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Instantiate the tenant and find its store so the test can append.
	if reply := r.Handle(execReq(1, "lab-x")); reply.Error != "" {
		t.Fatal(reply.Error)
	}
	_, db, err := r.ResolveStream("lab-x")
	if err != nil {
		t.Fatal(err)
	}
	first := db.NextSeq() // device-init records are already in the store

	srv := stream.NewServer(nil, nil)
	srv.SetTenantResolver(r.ResolveStream)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	rt := stream.NewResilientTail(stream.ResilientConfig{
		Addr:      addr,
		Subscribe: wire.Subscribe{Name: "tenant-tail", Tenant: "lab-x", ResumeFrom: first, Policy: wire.PolicyBlock},
		Seed:      7,
	})
	defer rt.Close()

	appendTenant := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := db.Append(store.Record{Device: "C9", Name: "MVNG"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	next := first
	recvTrace := func() {
		t.Helper()
		for {
			ev, err := rt.Recv()
			if err != nil {
				t.Fatalf("tenant tail recv (want seq %d): %v", next, err)
			}
			if ev.Kind != wire.EventTrace {
				continue
			}
			if ev.Record.Seq != next {
				t.Fatalf("seq %d delivered, want %d", ev.Record.Seq, next)
			}
			next++
			return
		}
	}

	appendTenant(4)
	for i := 0; i < 4; i++ {
		recvTrace()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	appendTenant(4)
	srv2 := stream.NewServer(nil, nil)
	srv2.SetTenantResolver(r.ResolveStream)
	if _, err := srv2.Start(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()
	for i := 0; i < 4; i++ {
		recvTrace()
	}
	if st := rt.Stats(); st.Reconnects == 0 || st.Delivered != 8 {
		t.Fatalf("stats %+v, want a reconnect and 8 delivered", st)
	}
}
