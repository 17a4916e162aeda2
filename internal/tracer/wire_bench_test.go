package tracer

import (
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/middlebox"
	"rad/internal/simclock"
	"rad/internal/store"
)

// BenchmarkWireExecTCP prices a full REMOTE-mode exec — session, transport,
// socket, middlebox, device, and back. The codec is a small slice of this
// round trip (see BenchmarkWireExecV2 in internal/wire for the isolated
// marshalling cost); the rest is what a real deployment's syscalls cost.
func BenchmarkWireExecTCP(b *testing.B) {
	clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
	core := middlebox.NewCore(clock, store.NewMemStore())
	core.Register(c9.New(device.NewEnv(clock, 1)))
	srv := middlebox.NewServer(core, middlebox.NetworkProfile{}, 1)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	transport, err := DialTCP(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer transport.Close()
	sess := NewSession(transport, clock, Config{DefaultMode: ModeRemote, Procedure: "bench"})
	defer sess.Close()
	arm, err := sess.Virtual("C9")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := arm.Exec(device.Command{Name: device.Init}); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arm.Exec(device.Command{Name: "HOME"}); err != nil {
			b.Fatal(err)
		}
	}
}
