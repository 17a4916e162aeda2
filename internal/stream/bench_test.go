package stream_test

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
	"rad/internal/tracedb"
	"rad/internal/wire"
)

// BenchmarkBrokerFanout measures the publish hot path against 1, 8, and 64
// actively-draining subscribers (EXPERIMENTS.md records the numbers).
func BenchmarkBrokerFanout(b *testing.B) {
	for _, subs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			broker := stream.NewBroker()
			defer broker.Close()
			var wg sync.WaitGroup
			for i := 0; i < subs; i++ {
				sub := broker.Subscribe(stream.SubOptions{Buffer: 1024})
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if _, ok := sub.Recv(); !ok {
							return
						}
					}
				}()
			}
			r := []store.Record{{Device: "C9", Name: "MVNG"}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r[0].Seq = uint64(i)
				broker.PublishBatch(r)
			}
			b.StopTimer()
			broker.Close()
			wg.Wait()
		})
	}
}

// BenchmarkPublishBaseline is the no-subscriber floor every fan-out number
// compares against.
func BenchmarkPublishBaseline(b *testing.B) {
	broker := stream.NewBroker()
	defer broker.Close()
	r := []store.Record{{Device: "C9", Name: "MVNG"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r[0].Seq = uint64(i)
		broker.PublishBatch(r)
	}
}

// BenchmarkPublishStalledSubscriber measures the acceptance bound: with one
// completely stalled drop-oldest subscriber, the publish path must stay
// within ~10% of the no-subscriber baseline (a slow tailer costs shedding,
// not throughput).
func BenchmarkPublishStalledSubscriber(b *testing.B) {
	broker := stream.NewBroker()
	defer broker.Close()
	broker.Subscribe(stream.SubOptions{Name: "stalled", Buffer: 1024}) // never Recvs
	r := []store.Record{{Device: "C9", Name: "MVNG"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r[0].Seq = uint64(i)
		broker.PublishBatch(r)
	}
}

// BenchmarkTraceHotPath measures the acceptance bound where it matters: the
// middlebox's trace hot path — an exec request handled end to end (device
// execution + tracedb commit) — with no broker, with an idle broker, and
// with one completely stalled drop-oldest subscriber. The
// stalled-subscriber figure must stay within ~10% of the no-subscriber one:
// a dead tailer costs the lab shedding, not command throughput.
func BenchmarkTraceHotPath(b *testing.B) {
	variants := []struct {
		name    string
		stalled bool
		broker  bool
	}{
		{name: "no-broker"},
		{name: "idle-broker", broker: true},
		{name: "stalled-subscriber", broker: true, stalled: true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			db, err := tracedb.Open(b.TempDir(), tracedb.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			clock := simclock.NewVirtual(time.Unix(0, 0))
			core := middlebox.NewCore(clock, db)
			core.Register(c9.New(device.NewEnv(clock, 1)))
			if v.broker {
				broker := stream.NewBroker()
				defer broker.Close()
				core.AttachBroker(broker)
				if v.stalled {
					broker.Subscribe(stream.SubOptions{Name: "stalled", Buffer: 1024})
				}
			}
			init := wire.Request{Op: wire.OpExec, Device: "C9", Name: "__init__"}
			if rep := core.Handle(init); rep.Error != "" {
				b.Fatal(rep.Error)
			}
			req := wire.Request{Op: wire.OpExec, Device: "C9", Name: "MVNG"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := core.Handle(req); rep.Error != "" {
					b.Fatal(rep.Error)
				}
			}
		})
	}
}
