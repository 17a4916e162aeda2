package store

import "rad/internal/device"

// The intern table holds, once each, the words that recur on every decode
// path: Vocabulary, and the wire protocol's fixed words. Decoding a string
// through it hands back a word's shared instance instead of a fresh copy,
// so the catalog names, labels and modes that fill every record cost no
// allocation. DecodeRecord and package wire's frame decoder both look
// strings up here.
//
// It is open-addressed with linear probing, built once at init from a
// fixed list and never grown. A string's home slot is a hash of its length
// and three sampled bytes (first, middle, last), so hashing costs the same
// at any length, and a match is confirmed by comparing the whole string.
// Since no input can add a word, the longest probe a lookup makes is fixed
// when the table is built: hostile input can make a lookup miss, never make
// it probe further.

// Vocabulary lists the words that recur across records: the catalog's
// device and command names, the procedure labels, the trace modes and the
// devices' "ok" reply.
func Vocabulary() []string {
	words := []string{
		UnknownProcedure, "P1", "P2", "P3", "P4", "P5", "P6", "replay",
		"DIRECT", "REMOTE", "ok",
	}
	for _, spec := range device.Catalog() {
		words = append(words, spec.Device, spec.Name)
	}
	return words
}

// wireWords are the wire protocol's fixed words (its ops, event kinds and
// overflow policies, and the ping reply), which package wire decodes
// through this table. They are spelled here because store cannot import
// wire; wire's tests check each of its constants against the table.
var wireWords = []string{
	"exec", "trace", "ping", "pong", "subscribe",
	"power", "snapshot-end", "error", "resume-gap",
	"drop-oldest", "block",
}

// internBits sizes the table: 512 slots for its ~75 words, so most of them
// sit in their home slot and none more than one slot past it.
const (
	internBits = 9
	internMask = 1<<internBits - 1
)

type internTable struct {
	slots    [1 << internBits]string
	maxProbe int // how far past its home slot the farthest word sits
}

var interned = newInternTable(append(Vocabulary(), wireWords...))

func newInternTable(words []string) internTable {
	var t internTable
	for _, w := range words {
		if _, ok := t.lookup([]byte(w)); ok || w == "" {
			continue
		}
		i, probe := internHash([]byte(w)), 0
		for t.slots[i] != "" {
			i, probe = (i+1)&internMask, probe+1
		}
		t.slots[i] = w
		t.maxProbe = max(t.maxProbe, probe)
	}
	return t
}

// internHash picks b's home slot from its length and its first, middle and
// last bytes. b must not be empty.
func internHash(b []byte) uint {
	n := len(b)
	k := uint32(n)<<24 | uint32(b[0])<<16 | uint32(b[n/2])<<8 | uint32(b[n-1])
	return uint(k*0x9e3779b1) >> (32 - internBits)
}

func (t *internTable) lookup(b []byte) (string, bool) {
	if len(b) == 0 {
		return "", false
	}
	i := internHash(b)
	for probe := 0; probe <= t.maxProbe; probe++ {
		w := t.slots[i]
		if w == "" {
			break
		}
		if w == string(b) {
			return w, true
		}
		i = (i + 1) & internMask
	}
	return "", false
}

// Interned returns the shared instance of the intern-table word b spells;
// ok is false when b spells none of them. It never allocates.
func Interned(b []byte) (s string, ok bool) { return interned.lookup(b) }

// Intern returns the shared instance of b when b spells an intern-table
// word, and a copy of b otherwise: the result never aliases b.
func Intern(b []byte) string {
	if s, ok := interned.lookup(b); ok {
		return s
	}
	return string(b)
}
