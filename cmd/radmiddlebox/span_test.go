package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/obs/span"
	"rad/internal/simclock"
	"rad/internal/stream"
	"rad/internal/tracer"
	"rad/internal/wire"
)

// TestSpanCrossProcessTraceStitching is the tracing tentpole's end-to-end
// acceptance: a client process's span context crosses the wire into a full
// radmiddlebox deployment (store + stream + telemetry) and the resulting
// /debug/spans tree stitches every layer — client span → server.request →
// wire decode/encode + middlebox.exec → tracedb append → stream delivery —
// into one tree per request, while /healthz reports serving.
func TestSpanCrossProcessTraceStitching(t *testing.T) {
	dir := t.TempDir()
	listenReady = make(chan string, 1)
	streamReady = make(chan string, 1)
	obsReady = make(chan string, 1)
	defer func() { listenReady = nil; streamReady = nil; obsReady = nil }()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-store", filepath.Join(dir, "tracedb"),
			"-trace", "", "-network", "none",
			"-stream", "127.0.0.1:0", "-obs-addr", "127.0.0.1:0",
			"-span-buffer", "1024",
		}, stop)
	}()
	var addr, streamAddr, obsAddr string
	for i := 0; i < 3; i++ {
		select {
		case addr = <-listenReady:
		case streamAddr = <-streamReady:
		case obsAddr = <-obsReady:
		case err := <-done:
			t.Fatalf("server exited early: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("server never came up")
		}
	}

	// A live watcher, so stream-delivery spans are recorded.
	tail, err := stream.Dial(streamAddr, wire.Subscribe{Name: "stitch-test", Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	time.Sleep(50 * time.Millisecond) // let the subscription attach

	// The client side of the paper's Fig. 1, with its own flight recorder:
	// every Exec records a client span and stamps its context into the
	// request (wire v2), exactly what radtrace -span-buffer does.
	transport, err := tracer.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	clientSpans := span.NewRecorder(span.Config{Seed: 99})
	sess := tracer.NewSession(transport, simclock.Real{}, tracer.Config{DefaultMode: tracer.ModeRemote})
	sess.SetSpans(clientSpans)
	dev, err := sess.Virtual(device.C9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Exec(device.Command{Name: device.Init}); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Exec(device.Command{Name: "MVNG"}); err != nil {
		t.Fatal(err)
	}
	_ = sess.Close()
	for i := 0; i < 2; i++ {
		if _, err := tail.Recv(); err != nil {
			t.Fatalf("tail recv %d: %v", i, err)
		}
	}

	// /healthz is 200 while serving.
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", obsAddr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %s while serving, want 200", resp.Status)
	}

	// The client recorder holds one client.exec span per command; index the
	// server trees by trace id and assert each client span parents a fully
	// stitched server tree. stream.deliver is recorded by the stream
	// listener's subscriber goroutine just after the frame is written, so
	// poll briefly for the final shape.
	clientByTrace := make(map[string]span.Span)
	for _, s := range clientSpans.Spans() {
		if s.Name == "client.exec" {
			clientByTrace[span.FormatID(s.TraceID)] = s
		}
	}
	if len(clientByTrace) != 2 {
		t.Fatalf("client recorded %d client.exec spans, want 2", len(clientByTrace))
	}

	deadline := time.Now().Add(5 * time.Second)
	var lastErr error
	for {
		var page span.PageJSON
		r, err := http.Get(fmt.Sprintf("http://%s/debug/spans?limit=0", obsAddr))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&page)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		lastErr = verifyStitchedTrees(page, clientByTrace)
		if lastErr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trees never stitched: %v", lastErr)
		}
		time.Sleep(20 * time.Millisecond)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never shut down")
	}
}

// verifyStitchedTrees checks that every client span's trace appears as a
// server.request root parented by that client span, with wire codec, exec,
// store-append, and stream-delivery spans all stitched beneath it.
func verifyStitchedTrees(page span.PageJSON, clientByTrace map[string]span.Span) error {
	matched := 0
	for _, root := range page.Roots {
		cs, ok := clientByTrace[root.Span.TraceID]
		if !ok {
			continue
		}
		if root.Span.Name != "server.request" {
			return fmt.Errorf("trace %s root is %q, want server.request", root.Span.TraceID, root.Span.Name)
		}
		if want := span.FormatID(cs.SpanID); root.Span.ParentID != want {
			return fmt.Errorf("trace %s root parent %s, want client span %s", root.Span.TraceID, root.Span.ParentID, want)
		}
		var exec *span.TreeJSON
		for i := range root.Children {
			c := &root.Children[i]
			switch c.Span.Name {
			case "middlebox.exec":
				exec = c
			case "wire.decode", "wire.encode":
			default:
				return fmt.Errorf("unexpected child %q under trace %s", c.Span.Name, root.Span.TraceID)
			}
		}
		if exec == nil {
			return fmt.Errorf("trace %s has no middlebox.exec child", root.Span.TraceID)
		}
		var gotAppend, gotDeliver bool
		for _, c := range exec.Children {
			switch c.Span.Name {
			case "store.append":
				gotAppend = true
			case "stream.deliver":
				gotDeliver = true
			}
		}
		if !gotAppend {
			return fmt.Errorf("trace %s exec has no store.append child", root.Span.TraceID)
		}
		if !gotDeliver {
			return fmt.Errorf("trace %s exec has no stream.deliver child", root.Span.TraceID)
		}
		matched++
	}
	if matched != len(clientByTrace) {
		return fmt.Errorf("stitched %d of %d client traces", matched, len(clientByTrace))
	}
	return nil
}
