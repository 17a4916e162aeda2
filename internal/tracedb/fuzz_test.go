package tracedb

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"testing"
	"time"

	"rad/internal/store"
)

// FuzzCompactRoundTrip pins the compactor's identity contract: for any
// record batch, flush shape, and segment size, compacting the store changes
// neither the canonical encoding of a full scan nor what a reopen recovers.
// The fuzzer shapes the records (data), the flush granularity (perBlock),
// and the write-segment size (segKB), hunting for batch boundaries where
// re-blocking could drop, duplicate, or reorder a record.
func FuzzCompactRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte("C9MVNG hello world some trace bytes"), uint8(1), uint8(1))
	f.Add(bytes.Repeat([]byte{0x41, 0x07, 0xff, 0x00}, 200), uint8(3), uint8(2))
	f.Add(bytes.Repeat([]byte("Quantos.start_dosing DIRECT run-p2 "), 40), uint8(2), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, perBlock, segKB uint8) {
		recs := recordsFromFuzz(data)
		if len(recs) == 0 {
			return
		}
		dir := t.TempDir()
		opts := Options{SegmentBytes: (int64(segKB%8) + 1) << 10}
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		per := int(perBlock%8) + 1
		for i := 0; i < len(recs); i += per {
			j := i + per
			if j > len(recs) {
				j = len(recs)
			}
			if err := db.AppendBatch(recs[i:j]); err != nil {
				t.Fatal(err)
			}
		}
		before, err := db.Collect(Query{})
		if err != nil {
			t.Fatal(err)
		}
		want := store.AppendBlock(nil, before)

		if _, err := db.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		after, err := db.Collect(Query{})
		if err != nil {
			t.Fatal(err)
		}
		if got := store.AppendBlock(nil, after); !bytes.Equal(want, got) {
			t.Fatalf("compaction changed the store: %d records -> %d", len(before), len(after))
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		db2, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("reopen after compaction: %v", err)
		}
		defer db2.Close()
		reopened, err := db2.Collect(Query{})
		if err != nil {
			t.Fatal(err)
		}
		if got := store.AppendBlock(nil, reopened); !bytes.Equal(want, got) {
			t.Fatalf("reopen after compaction changed the store: %d records -> %d",
				len(before), len(reopened))
		}
	})
}

// FuzzSegmentIndex checks the segment index, which folds each block into a
// tally of its distinct values before it updates the posting lists,
// against refAddBlock, a fold that updates them record by record. The
// bytes become blocks of records over a small alphabet, 4 bytes a record:
// empty devices, names, runs and procedures; the device names "a.b" and
// "a", so that the pairs (a.b, c) and (a, b.c) share the command type
// "a.b.c"; unsorted times and seqs; and block ends, empty blocks included,
// wherever the bytes put them. One tally serves every block, as it does a
// writer. numbered indexes the blocks as numbered from seq, as AppendBatch
// writes them.
func FuzzSegmentIndex(f *testing.F) {
	f.Add([]byte{}, false, uint64(0))
	f.Add([]byte{10, 0, 5, 9, 15 | 0x80, 1, 3, 2}, false, uint64(0))
	f.Add([]byte{0, 0, 0, 0, 0x40 | 5, 4, 200, 7, 6, 8, 100, 3, 5 | 0x80, 4, 1, 1, 10, 0, 5, 9}, true, uint64(40))
	f.Add(bytes.Repeat([]byte{1, 4, 9, 2, 6, 1, 250, 1, 10 | 0x80, 7, 30, 0, 15, 2, 3, 4}, 40), false, uint64(0))
	devices := []string{"", "C9", "a.b", "a"}
	names := []string{"", "MVNG", "c", "b.c"}
	runs := []string{"", "run-1", "run-2"}
	procs := []string{"", "P1", "P4"}

	f.Fuzz(func(t *testing.T, data []byte, numbered bool, seq uint64) {
		got, want := newSegmentIndex(), newSegmentIndex()
		var tally blockTally
		var block []store.Record
		add := func() {
			m := blockMeta{off: int64(len(got.blocks)) * 100, payloadLen: int32(len(block)), crc: uint32(len(data))}
			got.addBlock(&tally, m, block, seq, numbered)
			refAddBlock(&want, m, block, seq, numbered)
			seq += uint64(len(block))
			block = block[:0]
		}
		for ; len(data) >= 4; data = data[4:] {
			a, b, c, d := data[0], data[1], data[2], data[3]
			if a&0x40 != 0 {
				add() // ends the block so far, empty or not
			}
			block = append(block, store.Record{
				Seq:       uint64(d),
				Time:      time.Unix(0, int64(int8(c))*1000),
				Device:    devices[a%4],
				Name:      names[a/4%4],
				Run:       runs[b%3],
				Procedure: procs[b/3%3],
			})
			if a&0x80 != 0 {
				add()
			}
		}
		add()
		got.names, want.names = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tallied index\n%+v\nper-record fold\n%+v", got, want)
		}
	})
}

// refAddBlock is what addBlock must build: it updates the posting lists,
// purity bits and sole values record by record.
func refAddBlock(ix *segmentIndex, m blockMeta, recs []store.Record, seq uint64, numbered bool) {
	bi := int32(len(ix.blocks))
	post := func(lists map[string][]int32, k string) {
		if l := lists[k]; len(l) == 0 || l[len(l)-1] != bi {
			lists[k] = append(l, bi)
		}
	}
	m.count = int32(len(recs))
	for i, r := range recs {
		n, s, key := r.Time.UnixNano(), r.Seq, r.Key()
		if numbered {
			s = seq + uint64(i)
		}
		if i == 0 {
			m.minTimeN, m.maxTimeN, m.minSeq, m.maxSeq = n, n, s, s
			m.pure = pureDevice | pureKey | pureRun | pureProc
			m.soleDevice, m.soleKey, m.soleRun, m.soleProc = r.Device, key, r.Run, r.Procedure
		}
		m.minTimeN, m.maxTimeN = min(m.minTimeN, n), max(m.maxTimeN, n)
		m.minSeq, m.maxSeq = min(m.minSeq, s), max(m.maxSeq, s)
		for _, f := range []struct {
			bit       uint8
			sole, got string
		}{{pureDevice, m.soleDevice, r.Device}, {pureKey, m.soleKey, key}, {pureRun, m.soleRun, r.Run}, {pureProc, m.soleProc, r.Procedure}} {
			if f.sole != f.got {
				m.pure &^= f.bit
			}
		}
		post(ix.byDevice, r.Device)
		post(ix.byKey, key)
		if r.Run != "" {
			post(ix.byRun, r.Run)
		}
		post(ix.byProc, r.Procedure)
		ix.maxSeq = max(ix.maxSeq, s)
	}
	for _, f := range []struct {
		bit  uint8
		sole *string
	}{{pureDevice, &m.soleDevice}, {pureKey, &m.soleKey}, {pureRun, &m.soleRun}, {pureProc, &m.soleProc}} {
		if m.pure&f.bit == 0 {
			*f.sole = ""
		}
	}
	ix.count += len(recs)
	ix.payload += int64(m.payloadLen)
	ix.blocks = append(ix.blocks, m)
}

// recordsFromFuzz derives a deterministic batch of records from raw fuzz
// bytes: the input is consumed as a stream of field lengths and contents, so
// the fuzzer can shape devices, args, times, and batch sizes freely.
func recordsFromFuzz(data []byte) []store.Record {
	var recs []store.Record
	next := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		b := data[:n]
		data = data[n:]
		return b
	}
	nextStr := func() string {
		if len(data) == 0 {
			return ""
		}
		n := int(data[0]) % 16
		data = data[1:]
		return string(next(n))
	}
	for len(data) > 0 && len(recs) < 256 {
		var r store.Record
		tb := next(8)
		var nanos int64
		for _, b := range tb {
			nanos = nanos<<8 | int64(b)
		}
		r.Time = time.Unix(0, nanos)
		r.EndTime = time.Unix(0, nanos+int64(len(tb)))
		r.Device = nextStr()
		r.Name = nextStr()
		if len(data) > 0 {
			nargs := int(data[0]) % 4
			data = data[1:]
			for i := 0; i < nargs; i++ {
				r.Args = append(r.Args, nextStr())
			}
		}
		r.Response = nextStr()
		r.Exception = nextStr()
		r.Procedure = nextStr()
		r.Run = nextStr()
		r.Mode = nextStr()
		recs = append(recs, r)
	}
	return recs
}

// FuzzSegmentRoundTrip pins the two core durability contracts:
//
//  1. Canonical codec: any record batch encodes and decodes
//     byte-identically (encode → decode → re-encode is the identity).
//  2. Torn-tail recovery: truncating or flipping bytes anywhere in a
//     segment file never panics Open, recovers exactly the records of every
//     block untouched by the damage, and drops only the torn tail.
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0))
	f.Add([]byte("C9MVNG hello world some trace bytes"), uint8(1), uint16(3))
	f.Add(bytes.Repeat([]byte{0x41, 0x07, 0xff, 0x00}, 200), uint8(2), uint16(91))
	f.Add([]byte{0x80, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09}, uint8(1), uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, action uint8, arg uint16) {
		recs := recordsFromFuzz(data)
		for i := range recs {
			recs[i].Seq = uint64(i)
		}

		// Contract 1: canonical payload codec.
		payload := store.AppendBlock(nil, recs)
		decoded, err := decodePayload(new(store.BlockReader), payload, nil, nil)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if re := store.AppendBlock(nil, decoded); !bytes.Equal(re, payload) {
			t.Fatalf("re-encode differs: %d vs %d bytes", len(re), len(payload))
		}

		// Contract 2: build a real store in two batches, then damage it.
		if len(recs) == 0 {
			return
		}
		dir := t.TempDir()
		db, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		split := len(recs) / 2
		if err := db.AppendBatch(recs[:split]); err != nil {
			t.Fatal(err)
		}
		if err := db.AppendBatch(recs[split:]); err != nil {
			t.Fatal(err)
		}
		segPath := db.segs[0].path
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		raw, err := os.ReadFile(segPath)
		if err != nil {
			t.Fatal(err)
		}
		// Walk the pristine file to learn the block boundaries: frameEnds[i]
		// is the offset just past block i, cum[i] the records up to it.
		var frameEnds []int64
		var cum []int
		off, n := int64(len(segMagic)), 0
		for off+store.FrameHeaderSize <= int64(len(raw)) {
			plen := int64(binary.BigEndian.Uint32(raw[off : off+4]))
			blockRecs, err := decodePayload(new(store.BlockReader), raw[off+store.FrameHeaderSize:off+store.FrameHeaderSize+plen], nil, nil)
			if err != nil {
				t.Fatalf("pristine block undecodable: %v", err)
			}
			off += store.FrameHeaderSize + plen
			n += len(blockRecs)
			frameEnds = append(frameEnds, off)
			cum = append(cum, n)
		}
		if n != len(recs) {
			t.Fatalf("pristine store holds %d records, want %d", n, len(recs))
		}

		// Damage the file at a fuzzer-chosen position.
		pos := int64(arg) % int64(len(raw))
		switch action % 3 {
		case 0: // no damage
			pos = int64(len(raw))
		case 1: // torn write: cut the file at pos
			raw = raw[:pos]
		case 2: // bit rot: flip a bit at pos
			raw[pos] ^= 0x10
		}
		if err := os.WriteFile(segPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		// Every block that ends at or before the damage survives; the torn
		// block and everything after it is dropped.
		want := 0
		for i, end := range frameEnds {
			if end <= pos {
				want = cum[i]
			}
		}

		db2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen after damage: %v", err)
		}
		defer db2.Close()
		got, err := db2.Collect(Query{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != want {
			t.Fatalf("recovered %d records, want %d (damage action %d at %d)",
				len(got), want, action%3, pos)
		}
		for i := range got {
			if got[i].Seq != uint64(i) {
				t.Fatalf("recovered record %d has seq %d", i, got[i].Seq)
			}
			if re := store.AppendBlock(nil, got[i:i+1]); !bytes.Equal(re, store.AppendBlock(nil, recs[i:i+1])) {
				t.Fatalf("recovered record %d differs from the flushed one", i)
			}
		}
	})
}
