package deploy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/obs"
	"rad/internal/obs/span"
	"rad/internal/simclock"
	"rad/internal/stream"
	"rad/internal/tracer"
	"rad/internal/wire"
)

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestStartFailureClosesWhatItBuilt: the exec listener binds last, so a
// Start whose exec address is taken has already opened the store and an
// export and bound the stream and telemetry listeners. It must release all
// of them before it returns the error.
func TestStartFailureClosesWhatItBuilt(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	dir := t.TempDir()
	cfg := Config{
		Listen: taken.Addr().String(), StoreDir: filepath.Join(dir, "store"),
		TracePath: filepath.Join(dir, "trace.jsonl"), StreamAddr: freeAddr(t), ObsAddr: freeAddr(t),
	}
	if d, err := Start(cfg); err == nil {
		d.Close()
		t.Fatal("Start on a taken exec address succeeded")
	}
	for _, addr := range []string{cfg.StreamAddr, cfg.ObsAddr} {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("%s still bound after the failed Start: %v", addr, err)
			continue
		}
		ln.Close()
	}

	// With the exec address free, the same Config starts.
	taken.Close()
	d, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitForSubscriber returns once d's broker has a subscriber.
func waitForSubscriber(t *testing.T, d *Deployment) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(d.Broker.Stats()) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never attached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainReportsWhileSubscribersAttached: Drain runs report after the
// exec listener stops and before the stream listener drains, so the
// report still sees the live subscriber that the stream drain detaches.
func TestDrainReportsWhileSubscribersAttached(t *testing.T) {
	d, err := Start(Config{Listen: "127.0.0.1:0", StreamAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sub, err := stream.Dial(d.Addrs.Stream, wire.Subscribe{Name: "watcher"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitForSubscriber(t, d)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var reported int
	severed, err := d.Drain(ctx, func() {
		if !d.mbox.Draining() {
			t.Error("report ran before the exec listener stopped")
		}
		reported = len(d.Broker.Stats())
	})
	if severed != nil || err != nil {
		t.Fatalf("Drain: severed %v, err %v", severed, err)
	}
	if reported != 1 {
		t.Errorf("report saw %d subscribers, want 1", reported)
	}
	if n := len(d.Broker.Stats()); n != 0 {
		t.Errorf("%d subscribers attached after Drain, want 0", n)
	}
}

// TestPowerStreamCarriesEverySample: with Power and a stream listener, the
// UR3e's monitor keeps no samples, so the stream is their one way out. A
// Block subscriber that asked for power, with a ring larger than one move,
// receives every sample of a move served over the wire: as many as
// Monitor.Len counts, the number the shutdown summary prints. The
// telemetry endpoint balances the same flow: records published plus
// samples recorded equal what the one subscriber was delivered or dropped.
func TestPowerStreamCarriesEverySample(t *testing.T) {
	d, err := Start(Config{Listen: "127.0.0.1:0", StreamAddr: "127.0.0.1:0", ObsAddr: "127.0.0.1:0", Power: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sub, err := stream.Dial(d.Addrs.Stream, wire.Subscribe{
		Name: "power", Power: true, Policy: wire.PolicyBlock, Buffer: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitForSubscriber(t, d)
	type tally struct {
		traces, samples int
		dropped         uint64
		err             error
	}
	got := make(chan tally, 1)
	go func() {
		var n tally
		for {
			ev, err := sub.Recv()
			if err != nil {
				n.err = err
				got <- n
				return
			}
			n.dropped += ev.Dropped
			switch ev.Kind {
			case wire.EventTrace:
				n.traces++
			case wire.EventPower:
				n.samples++
			}
		}
	}()

	transport, err := tracer.DialTCP(d.Addrs.Exec)
	if err != nil {
		t.Fatal(err)
	}
	sess := tracer.NewSession(transport, simclock.Real{}, tracer.Config{DefaultMode: tracer.ModeRemote})
	arm, err := sess.Virtual(device.UR3e)
	if err != nil {
		t.Fatal(err)
	}
	// A 0.1 rad base turn from home: a few 40 ms ticks of real time.
	for _, cmd := range []device.Command{
		{Name: device.Init},
		{Name: "move_joints", Args: []string{"0.1", "-1.5707963", "0", "-1.5707963", "0", "0"}},
	} {
		if _, err := arm.Exec(cmd); err != nil {
			t.Fatal(err)
		}
	}
	_ = sess.Close()

	// Drain flushes the subscriber's ring, then ends its stream.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if severed, err := d.Drain(ctx, func() {}); severed != nil || err != nil {
		t.Fatalf("Drain: severed %v, err %v", severed, err)
	}
	var n tally
	select {
	case n = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("stream never ended after Drain")
	}
	if !errors.Is(n.err, io.EOF) {
		t.Errorf("stream ended with %v, want EOF", n.err)
	}
	if recorded := d.Monitor.Len(); recorded == 0 || n.samples != recorded || n.dropped != 0 {
		t.Errorf("subscriber received %d samples (%d dropped), monitor recorded %d", n.samples, n.dropped, recorded)
	}
	if n.traces != 2 {
		t.Errorf("subscriber received %d trace records, want 2", n.traces)
	}

	resp, err := http.Get("http://" + d.Addrs.Obs + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	counter := map[string]uint64{}
	for _, c := range snap.Counters {
		if len(c.Labels) == 0 {
			counter[c.Name] = c.Value
		}
	}
	published, samples := counter["rad_stream_published_total"], counter["rad_power_samples_total"]
	delivered, dropped := counter["rad_stream_delivered_total"], counter["rad_stream_dropped_total"]
	if samples != uint64(d.Monitor.Len()) || published+samples != delivered+dropped {
		t.Errorf("published %d + power samples %d != delivered %d + dropped %d (monitor recorded %d)",
			published, samples, delivered, dropped, d.Monitor.Len())
	}
}

// TestFleetScrapeAllocatesLittle: a telemetry scrape of a fleet deployment
// renders per-tenant series that read counters, not the span ring. With
// 256 tenants and a full 512-span ring, one /metrics scrape must allocate
// under 1 MB (a ring copy per tenant series allocated ~67 MB).
func TestFleetScrapeAllocatesLittle(t *testing.T) {
	const tenants, ring = 256, 512
	d, err := Start(Config{Listen: "127.0.0.1:0", ObsAddr: "127.0.0.1:0", Fleet: true,
		MaxTenants: tenants, SpanBuffer: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	start := time.Now()
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("lab-%03d", i)
		if rep := d.Fleet.Handle(wire.Request{ID: 1, Op: wire.OpPing, Tenant: id}); rep.Error != "" {
			t.Fatalf("ping %s: %s", id, rep.Error)
		}
	}
	for i := 0; i < ring; i++ {
		d.Spans.Record(span.Span{TraceID: uint64(i + 1), SpanID: uint64(i + 1), Name: "exec",
			Tenant: fmt.Sprintf("lab-%03d", i%tenants), Start: start, End: start.Add(time.Millisecond)})
	}
	if st := d.Spans.Stats(); st.Buffered != ring {
		t.Fatalf("ring holds %d spans, want %d", st.Buffered, ring)
	}
	scrape := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Get("http://" + d.Addrs.Obs + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	scrape() // the first scrape dials the connection
	if got := scrape(); got >= 1<<20 {
		t.Errorf("one scrape of %d tenants allocated %d bytes, want under 1 MB", tenants, got)
	}
}
