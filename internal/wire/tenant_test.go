package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"unsafe"
)

// unsafeStringData exposes a string's backing pointer so the interning tests
// can assert two strings share one instance.
func unsafeStringData(s string) *byte { return unsafe.StringData(s) }

// TestWireTenantRoundTrip proves the tenant tag survives the codec and that
// the empty tenant — the value every single-tenant peer sends — costs zero
// bytes, so a single-tenant peer's byte stream is unchanged.
func TestWireTenantRoundTrip(t *testing.T) {
	req := Request{ID: 7, Op: OpExec, Device: "C9", Name: "GetJointPosition", Tenant: "lab-042"}
	sub := Subscribe{Op: OpSubscribe, Device: "C9", Tenant: "lab-042"}

	t.Run("v2 request", func(t *testing.T) {
		payload, err := appendBinaryFrame(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		var got Request
		if err := decodeBinaryFrame(payload, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("round trip: got %+v want %+v", got, req)
		}
	})

	t.Run("v2 subscribe", func(t *testing.T) {
		payload, err := appendBinaryFrame(nil, &sub)
		if err != nil {
			t.Fatal(err)
		}
		var got Subscribe
		if err := decodeBinaryFrame(payload, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, sub) {
			t.Fatalf("round trip: got %+v want %+v", got, sub)
		}
	})

	t.Run("empty tenant costs zero bytes", func(t *testing.T) {
		bare := Request{ID: 7, Op: OpExec, Device: "C9", Name: "GetJointPosition"}
		with, _ := appendBinaryFrame(nil, &bare)
		tagged := bare
		tagged.Tenant = ""
		again, _ := appendBinaryFrame(nil, &tagged)
		if !bytes.Equal(with, again) {
			t.Fatal("empty tenant changed the byte stream")
		}
	})
}

// TestWireTenantVocabInterning proves repeated tenant IDs on one connection
// resolve to a single shared string instance (the learned vocabulary doing
// its job) and that distinct connections learn independently.
func TestWireTenantVocabInterning(t *testing.T) {
	payload, err := appendBinaryFrame(nil, &Request{ID: 1, Op: OpExec, Tenant: "tenant-interned"})
	if err != nil {
		t.Fatal(err)
	}
	var v connVocab
	var a, b Request
	if err := decodeBinaryFrameVocab(payload, &a, &v); err != nil {
		t.Fatal(err)
	}
	if err := decodeBinaryFrameVocab(payload, &b, &v); err != nil {
		t.Fatal(err)
	}
	if a.Tenant != "tenant-interned" || b.Tenant != "tenant-interned" {
		t.Fatalf("tenants = %q, %q", a.Tenant, b.Tenant)
	}
	// Same connection → same shared instance.
	if unsafeStringData(a.Tenant) != unsafeStringData(b.Tenant) {
		t.Fatal("repeated tenant on one connection was not interned")
	}
	if len(v.words) != 1 {
		t.Fatalf("vocab holds %d words, want 1", len(v.words))
	}
	// A fresh connection learns its own copy; the first table is untouched.
	var v2 connVocab
	var c Request
	if err := decodeBinaryFrameVocab(payload, &c, &v2); err != nil {
		t.Fatal(err)
	}
	if len(v.words) != 1 || len(v2.words) != 1 {
		t.Fatalf("vocab sizes = %d, %d; want 1, 1", len(v.words), len(v2.words))
	}
}

// TestWireTenantVocabCap proves the learned vocabulary is strictly bounded:
// the connection decodes MaxConnVocab distinct tenants fine, and the very
// next new word is a hard decode error wrapping ErrVocabFull.
func TestWireTenantVocabCap(t *testing.T) {
	var v connVocab
	for i := 0; i < MaxConnVocab; i++ {
		payload, err := appendBinaryFrame(nil, &Request{ID: 1, Op: OpExec, Tenant: fmt.Sprintf("t%04d", i)})
		if err != nil {
			t.Fatal(err)
		}
		var q Request
		if err := decodeBinaryFrameVocab(payload, &q, &v); err != nil {
			t.Fatalf("word %d: %v", i, err)
		}
	}
	if len(v.words) != MaxConnVocab {
		t.Fatalf("vocab holds %d words, want %d", len(v.words), MaxConnVocab)
	}
	// Known words still decode at the cap.
	known, _ := appendBinaryFrame(nil, &Request{ID: 1, Op: OpExec, Tenant: "t0000"})
	var q Request
	if err := decodeBinaryFrameVocab(known, &q, &v); err != nil {
		t.Fatalf("known word at cap: %v", err)
	}
	// Protocol vocabulary is exempt (static table, not learned).
	catalog, _ := appendBinaryFrame(nil, &Request{ID: 1, Op: OpExec, Tenant: "C9"})
	if err := decodeBinaryFrameVocab(catalog, &q, &v); err != nil {
		t.Fatalf("static vocab word at cap: %v", err)
	}
	// One more learned word is a strict error.
	over, _ := appendBinaryFrame(nil, &Request{ID: 1, Op: OpExec, Tenant: "one-too-many"})
	err := decodeBinaryFrameVocab(over, &q, &v)
	if !errors.Is(err, ErrVocabFull) {
		t.Fatalf("past cap: err = %v, want ErrVocabFull", err)
	}
	// Subscribe frames share the same bounded table.
	sub, _ := appendBinaryFrame(nil, &Subscribe{Op: OpSubscribe, Tenant: "another-new"})
	var s Subscribe
	if err := decodeBinaryFrameVocab(sub, &s, &v); !errors.Is(err, ErrVocabFull) {
		t.Fatalf("subscribe past cap: err = %v, want ErrVocabFull", err)
	}
}

// TestWireTenantVocabOverlongWordNotRetained proves words past the retention
// limit decode fine but never consume table slots.
func TestWireTenantVocabOverlongWordNotRetained(t *testing.T) {
	long := make([]byte, maxVocabWordLen+1)
	for i := range long {
		long[i] = 'x'
	}
	payload, err := appendBinaryFrame(nil, &Request{ID: 1, Op: OpExec, Tenant: string(long)})
	if err != nil {
		t.Fatal(err)
	}
	var v connVocab
	var q Request
	if err := decodeBinaryFrameVocab(payload, &q, &v); err != nil {
		t.Fatal(err)
	}
	if q.Tenant != string(long) {
		t.Fatal("overlong tenant mangled")
	}
	if len(v.words) != 0 {
		t.Fatalf("overlong word retained (%d entries)", len(v.words))
	}
}

// TestWireTenantConnV2 drives the tenant tag through a real negotiated
// connection pair, including the hostile case: a peer presenting more than
// MaxConnVocab distinct tenants gets a decode error, severing it.
func TestWireTenantConnV2(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	done := make(chan error, 1)
	go func() {
		cc, err := Client(client, nil)
		if err != nil {
			done <- err
			return
		}
		for i := 0; i < MaxConnVocab+1; i++ {
			if err := cc.WriteFrame(&Request{ID: uint64(i), Op: OpExec, Tenant: fmt.Sprintf("flood-%05d", i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	sc, err := Accept(server, nil)
	if err != nil {
		t.Fatal(err)
	}
	var decodeErr error
	n := 0
	for {
		var q Request
		if err := sc.ReadFrame(&q); err != nil {
			decodeErr = err
			break
		}
		n++
		if want := fmt.Sprintf("flood-%05d", n-1); q.Tenant != want {
			t.Fatalf("frame %d: tenant %q, want %q", n, q.Tenant, want)
		}
	}
	if n != MaxConnVocab {
		t.Fatalf("decoded %d frames before the cap, want %d", n, MaxConnVocab)
	}
	if !errors.Is(decodeErr, ErrVocabFull) {
		t.Fatalf("decode err = %v, want ErrVocabFull", decodeErr)
	}
	client.Close()
	<-done
}
