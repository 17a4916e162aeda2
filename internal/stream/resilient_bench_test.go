package stream_test

import (
	"testing"
	"time"

	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/wire"
)

// Session-resilience cost benchmarks (EXPERIMENTS.md records the numbers):
// what the resilient tail's cursor accounting costs on the steady-state
// delivery path, what a live heartbeat adds, and how long one full
// kill-to-resume reconnect cycle takes end to end.

// recvSource is the common Recv surface of Client and ResilientTail.
type recvSource interface {
	Recv() (wire.Event, error)
	Close() error
}

// benchTailDelivery streams b.N stored records through a snapshot
// subscription and measures per-record delivery cost over real TCP.
func benchTailDelivery(b *testing.B, heartbeat time.Duration, open func(addr string) (recvSource, error)) {
	db, err := tracedb.Open(b.TempDir(), tracedb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	broker := stream.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)
	srv := stream.NewServer(broker, db)
	if heartbeat > 0 {
		srv.SetHeartbeat(heartbeat)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	for i := 0; i < b.N; i++ {
		if err := db.Append(store.Record{Device: "C9", Name: "MVNG"}); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	src, err := open(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	for got := 0; got < b.N; {
		ev, err := src.Recv()
		if err != nil {
			b.Fatal(err)
		}
		if ev.Kind == wire.EventTrace {
			got++
		}
	}
}

// BenchmarkResilientTailDelivery compares the plain client against the
// resilient tail (seq-cursor dedup accounting on every record) and against
// a resilient tail whose server heartbeats every 5ms — the worst-case
// supervision chatter, far hotter than any production interval.
func BenchmarkResilientTailDelivery(b *testing.B) {
	req := wire.Subscribe{Name: "bench", Snapshot: true, Policy: wire.PolicyBlock, Buffer: 1024}
	b.Run("plain", func(b *testing.B) {
		benchTailDelivery(b, 0, func(addr string) (recvSource, error) {
			return stream.Dial(addr, req)
		})
	})
	b.Run("resilient", func(b *testing.B) {
		benchTailDelivery(b, 0, func(addr string) (recvSource, error) {
			return stream.NewResilientTail(stream.ResilientConfig{Addr: addr, Subscribe: req, Seed: 1}), nil
		})
	})
	b.Run("resilient-heartbeat-5ms", func(b *testing.B) {
		benchTailDelivery(b, 5*time.Millisecond, func(addr string) (recvSource, error) {
			return stream.NewResilientTail(stream.ResilientConfig{Addr: addr, Subscribe: req, Seed: 1}), nil
		})
	})
}

// BenchmarkReconnectResumeCycle measures one full outage round trip: the
// listener is hard-killed and restarted, one record lands while the tail
// is redialing, and the iteration ends when the resumed tail delivers it.
// The cost is dominated by the jittered backoff (1-8ms here) plus the
// renegotiated handshake and the [cursor, head) replay query.
func BenchmarkReconnectResumeCycle(b *testing.B) {
	db, err := tracedb.Open(b.TempDir(), tracedb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	broker := stream.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)
	srv := stream.NewServer(broker, db)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}

	rt := stream.NewResilientTail(stream.ResilientConfig{
		Addr:        addr,
		Subscribe:   wire.Subscribe{Name: "bench", Snapshot: true, Policy: wire.PolicyBlock},
		Seed:        1,
		BackoffBase: time.Millisecond,
		BackoffMax:  8 * time.Millisecond,
	})
	defer rt.Close()

	next := uint64(0)
	step := func() {
		if err := db.Append(store.Record{Device: "C9", Name: "MVNG"}); err != nil {
			b.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
		for {
			ev, err := rt.Recv()
			if err != nil {
				b.Fatal(err)
			}
			if ev.Kind != wire.EventTrace {
				continue
			}
			if ev.Record.Seq != next {
				b.Fatalf("seq %d delivered, want %d", ev.Record.Seq, next)
			}
			next++
			return
		}
	}
	step() // prime the first connection before the clock starts

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
		srv = stream.NewServer(broker, db)
		if _, err := srv.Start(addr); err != nil {
			b.Fatalf("restart on %s: %v", addr, err)
		}
		step()
	}
	b.StopTimer()
	_ = srv.Close()
	if st := rt.Stats(); st.Reconnects < uint64(b.N) {
		b.Fatalf("only %d reconnects across %d cycles", st.Reconnects, b.N)
	}
}
