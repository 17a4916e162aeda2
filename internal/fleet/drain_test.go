package fleet

// Fleet-layer session-resilience tests: router drain and tenant-tagged
// resilient tails across a stream-listener restart.

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
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
func streamFactory(tb testing.TB, drained *atomic.Int32) Factory {
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
		if drained != nil {
			res.Drain = func(ctx context.Context) error {
				drained.Add(1)
				broker.Close()
				return db.Flush()
			}
		}
		res.Close = func() error { broker.Close(); return db.Close() }
		return res, nil
	}
}

func tenantCore(clock *simclock.Virtual, sink store.Sink, id string) *middlebox.Core {
	core := middlebox.NewCore(clock, sink)
	core.Register(c9.New(device.NewEnv(clock, TenantSeed(7, id))))
	return core
}

// TestFleetRouterDrainQuiescesTenants: Drain visits every tenant — custom
// hooks run, brokers close (their subscribers' tails end), and stores
// flush — and a second Close stays a harmless teardown.
func TestFleetRouterDrainQuiescesTenants(t *testing.T) {
	var drained atomic.Int32
	r, err := NewRouter(Config{Factory: streamFactory(t, &drained)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	tenants := []string{"lab-a", "lab-b", "lab-c"}
	for i, id := range tenants {
		if reply := r.Handle(execReq(uint64(i), id)); reply.Error != "" {
			t.Fatalf("exec %s: %s", id, reply.Error)
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
	if got := int(drained.Load()); got != len(tenants) {
		t.Fatalf("drain hooks ran for %d tenants, want %d", got, len(tenants))
	}
	if _, ok := sub.Recv(); ok {
		t.Fatal("subscriber still live after fleet drain")
	}
}

// TestFleetRouterDrainHonorsContext: a tenant hook that outlives the
// budget makes Drain return the context error instead of hanging.
func TestFleetRouterDrainHonorsContext(t *testing.T) {
	r, err := NewRouter(Config{Factory: func(id string) (*Resources, error) {
		clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
		res := &Resources{Core: tenantCore(clock, store.NewMemStore(), id)}
		res.Drain = func(ctx context.Context) error {
			<-ctx.Done() // a lab that refuses to quiesce
			return ctx.Err()
		}
		return res, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if reply := r.Handle(execReq(1, "stuck")); reply.Error != "" {
		t.Fatal(reply.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := r.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain returned %v, want deadline exceeded", err)
	}
}

// TestFleetRouterDrainReleasesGoroutines: build/route/drain/close cycles
// across multi-tenant routers return to the baseline goroutine count.
func TestFleetRouterDrainReleasesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		r, err := NewRouter(Config{Factory: streamFactory(t, nil)})
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
	r, err := NewRouter(Config{Factory: streamFactory(t, nil)})
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
