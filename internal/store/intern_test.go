package store

import (
	"testing"
	"unsafe"
)

// TestInternSharesEveryWord: each Vocabulary word and each wire protocol
// word resolves to one shared instance, whatever bytes spell it, without
// allocating; and no word sits more than one slot past its home, so the
// hash has not degenerated.
func TestInternSharesEveryWord(t *testing.T) {
	for _, w := range append(Vocabulary(), wireWords...) {
		s, ok := Interned([]byte(w))
		if !ok || s != w {
			t.Fatalf("Interned(%q) = %q, %t", w, s, ok)
		}
		if got := Intern([]byte(w)); unsafe.StringData(got) != unsafe.StringData(s) {
			t.Fatalf("Intern(%q) is not the shared instance", w)
		}
		b := []byte(w)
		if n := testing.AllocsPerRun(10, func() { Intern(b) }); n != 0 {
			t.Fatalf("Intern(%q): %.1f allocs, want 0", w, n)
		}
	}
	if interned.maxProbe > 1 {
		t.Fatalf("a word sits %d slots past its home, want at most 1", interned.maxProbe)
	}
}

// TestInternCopiesNearMisses: a string that hashes like a word (same length,
// same sampled bytes) but differs elsewhere, and arbitrary bytes, come back
// equal to the input and as a fresh copy: mutating the input afterwards
// leaves the result alone.
func TestInternCopiesNearMisses(t *testing.T) {
	var inputs [][]byte
	for _, w := range append(Vocabulary(), wireWords...) {
		for i := 1; i < len(w)-1; i++ {
			if i == len(w)/2 {
				continue // a sampled byte
			}
			b := []byte(w)
			b[i] ^= 0x20
			if internHash(b) != internHash([]byte(w)) {
				t.Fatalf("near-miss %q of %q hashes elsewhere", b, w)
			}
			inputs = append(inputs, b)
		}
	}
	if len(inputs) < 100 {
		t.Fatalf("only %d near-misses", len(inputs))
	}
	inputs = append(inputs, []byte("run-17"), []byte("\xff\x00\xfe"), []byte("C99"),
		[]byte("MVN"), []byte("REMOTE "), make([]byte, 300))
	for _, b := range inputs {
		want := string(b)
		if s, ok := Interned(b); ok {
			t.Fatalf("Interned(%q) = %q, want a miss", want, s)
		}
		got := Intern(b)
		if got != want {
			t.Fatalf("Intern(%q) = %q", want, got)
		}
		for i := range b {
			b[i]++
		}
		if got != want {
			t.Fatalf("Intern(%q) changed to %q with its input", want, got)
		}
	}
	if Intern(nil) != "" {
		t.Fatal("Intern(nil) is not empty")
	}
	if _, ok := Interned([]byte{}); ok {
		t.Fatal("the empty string is a word")
	}
}
