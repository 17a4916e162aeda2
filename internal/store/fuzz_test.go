package store

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// FuzzReadCSV hardens the CSV import path against arbitrary files.
func FuzzReadCSV(f *testing.F) {
	var valid bytes.Buffer
	w := NewCSVWriter(&valid)
	_ = w.Append(Record{Time: time.Unix(1, 0), EndTime: time.Unix(2, 0),
		Device: "C9", Name: "ARM", Args: []string{"1", "2"}, Procedure: "P1"})
	_ = w.Flush()
	f.Add(valid.String())
	f.Add("")
	f.Add("seq,time\n1,notatime\n")
	f.Add("a,b,c\n\"unterminated")

	f.Fuzz(func(t *testing.T, data string) {
		_, _ = ReadCSV(strings.NewReader(data)) // must not panic
	})
}

// FuzzReadJSONL hardens the JSONL import path.
func FuzzReadJSONL(f *testing.F) {
	var valid bytes.Buffer
	w := NewJSONLWriter(&valid)
	_ = w.Append(Record{Device: "Tecan", Name: "Q"})
	_ = w.Flush()
	f.Add(valid.String())
	f.Add("")
	f.Add("{broken json\n")
	f.Add("{\"device\":\"C9\"}\nnot json\n")

	f.Fuzz(func(t *testing.T, data string) {
		_, _ = ReadJSONL(strings.NewReader(data)) // must not panic
	})
}

// FuzzRecordRoundTrip: any record written by the CSV writer reads back
// field-identical.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add("C9", "ARM", "1|2", "ok", "", "P1", "run-3", "REMOTE")
	f.Add("", "", "", "", "err", "", "", "")
	f.Fuzz(func(t *testing.T, dev, name, args, resp, exc, proc, run, mode string) {
		// The CSV arg encoding uses '|' as a separator and csv quoting
		// handles the rest; reject only embedded separator ambiguity.
		if strings.Contains(args, "|") && args != "1|2" {
			t.Skip()
		}
		in := Record{
			Seq: 1, Time: time.Unix(100, 0).UTC(), EndTime: time.Unix(101, 0).UTC(),
			Device: dev, Name: name, Response: resp, Exception: exc,
			Procedure: proc, Run: run, Mode: mode,
		}
		if args != "" {
			in.Args = strings.Split(args, "|")
		}
		var buf bytes.Buffer
		w := NewCSVWriter(&buf)
		if err := w.Append(in); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		out, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if len(out) != 1 {
			t.Fatalf("%d records", len(out))
		}
		got := out[0]
		if got.Device != in.Device || got.Name != in.Name || got.Response != in.Response ||
			got.Exception != in.Exception || got.Procedure != in.Procedure ||
			got.Run != in.Run || got.Mode != in.Mode || len(got.Args) != len(in.Args) {
			t.Fatalf("round trip mismatch:\n in:  %+v\n out: %+v", in, got)
		}
	})
}

// FuzzBlockReader hardens the one block reader that tracedb's recovery scan
// and the stream client share, in memory: arbitrary bytes must decode or
// fail, never panic or make room for a record count the bytes cannot hold.
// A block that decodes in full ends exactly at its last record, each record
// equal to DecodeRecord's of the same bytes though its strings and Args come
// from the reader's shared chunks, and re-encodes to one that reads back the
// same records.
func FuzzBlockReader(f *testing.F) {
	valid := AppendBlock(nil, []Record{
		{Seq: 1, Time: time.Unix(100, 5), EndTime: time.Unix(101, 0), Device: "C9", Name: "ARM",
			Args: []string{"1", "ünïcödé"}, Response: "ok", Procedure: "P1", Run: "run-3", Mode: "REMOTE"},
		{Seq: 2, Device: "UR3e", Name: "movej", Exception: "timeout"},
	})
	f.Add(valid)
	// Near-misses of intern-table words: same length and sampled bytes as a
	// word, another byte changed.
	f.Add(AppendBlock(nil, []Record{{Seq: 3, Device: "UX3e", Name: "mOve_joints", Args: []string{"MvNG"},
		Response: "dIRECT", Procedure: "P1", Run: "rEplay", Mode: "RxMOTE"}}))
	f.Add(append(binary.AppendUvarint(nil, 1<<40), valid[1:]...)) // a count its bytes cannot hold
	f.Add(valid[:len(valid)-1])                                   // the last record truncated
	f.Add(append(append([]byte(nil), valid...), 0))               // a byte after the last record
	f.Add([]byte{0})
	f.Add([]byte{0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var br BlockReader
		if br.Reset(data) != nil {
			return
		}
		if br.Len() > len(data)/MinRecordBytes {
			t.Fatalf("accepted a count of %d records in %d bytes", br.Len(), len(data))
		}
		var got []Record
		for br.Len() > 0 {
			var r Record
			if err := br.Next(&r); err != nil {
				if br.Len() != 0 {
					t.Fatalf("a failed read left %d records to read", br.Len())
				}
				return
			}
			got = append(got, r)
		}
		_, end := binary.Uvarint(data)
		for i := range got {
			var r Record
			n, _ := DecodeRecord(data[end:], &r)
			if !reflect.DeepEqual(r, got[i]) {
				t.Fatalf("record %d: BlockReader %+v, DecodeRecord %+v", i, got[i], r)
			}
			end += n
		}
		if end != len(data) {
			t.Fatalf("read %d records ending at byte %d of %d", len(got), end, len(data))
		}
		if err := br.Reset(AppendBlock(nil, got)); err != nil {
			t.Fatalf("re-encoded block: %v", err)
		}
		for i := range got {
			var r Record
			if err := br.Next(&r); err != nil || !reflect.DeepEqual(r, got[i]) {
				t.Fatalf("re-encoded record %d: %+v, %v; want %+v", i, r, err, got[i])
			}
		}
		if br.Len() != 0 {
			t.Fatalf("re-encoded block holds %d more records", br.Len())
		}
	})
}

// FuzzAppendFrames pins the capped frame encoder tracedb writes its blocks
// with, in memory, for any batch and any cap: the frames hold the batch's
// records in order, numbered from seq; every frame of two or more records
// stays within the cap, and each but the last would pass it with the next
// record; a batch within the cap is the one frame AppendFrame writes of the
// numbered batch. Without numbering the frames are the same as those of
// the batch already numbered, and the batch is left as it was.
func FuzzAppendFrames(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint16(0))
	f.Add([]byte{3, 0, 250, 7}, uint64(40), uint16(1<<15))
	f.Add([]byte{200, 1, 200}, uint64(1<<63), uint16(0))
	// More than 127 records left, under 128 per frame: a closed frame's count
	// takes one byte fewer than the prefix reserved for it.
	f.Add(bytes.Repeat([]byte{9, 60, 130}, 100), uint64(5), uint16(2000))
	// Two records that fit the cap behind a one-byte count but not behind
	// the two bytes reserved for the 128 records left: the cap counts the
	// prefix a frame closes with.
	f.Add(append(append(bytes.Repeat([]byte{'0'}, 16), 1, 27), bytes.Repeat([]byte{'0'}, 126)...), uint64(5), uint16(93))
	f.Fuzz(func(t *testing.T, data []byte, seq uint64, maxPayload uint16) {
		recs := make([]Record, len(data))
		for i, c := range data {
			recs[i] = Record{Seq: uint64(c) << 20, Time: time.Unix(int64(c), 0), Device: "C9", Name: "ARM",
				Args: []string{strings.Repeat("x", int(c))}, Run: strings.Repeat("r", i%3)}
		}
		orig, stamped := slices.Clone(recs), slices.Clone(recs)
		for i := range stamped {
			stamped[i].Seq = seq + uint64(i)
		}
		limit, prefix := int(maxPayload), []byte("x")
		got := AppendFrames(prefix, recs, seq, true, limit)
		if !reflect.DeepEqual(recs, orig) {
			t.Fatal("AppendFrames modified the batch")
		}
		if whole := len(AppendBlock(nil, stamped)); len(recs) > 0 && (whole <= limit || len(recs) == 1) &&
			!bytes.Equal(got, AppendFrame(prefix, stamped)) {
			t.Fatalf("a batch within the cap is not one AppendFrame frame:\n got %x", got)
		}
		if plain := AppendFrames(prefix, stamped, 0, false, limit); !bytes.Equal(got, plain) {
			t.Fatal("numbered frames differ from those of the numbered batch")
		}
		var br BlockReader
		i, b := 0, got[len(prefix):]
		for len(b) > 0 {
			n, crc, err := ParseFrameHeader(b)
			if err != nil || n > len(b)-FrameHeaderSize {
				t.Fatalf("frame at record %d: length %d of %d bytes, %v", i, n, len(b), err)
			}
			payload := b[FrameHeaderSize : FrameHeaderSize+n]
			if err := CheckFrame(payload, crc); err != nil {
				t.Fatalf("frame at record %d: %v", i, err)
			}
			if err := br.Reset(payload); err != nil || br.Len() == 0 || i+br.Len() > len(recs) {
				t.Fatalf("frame at record %d holds %d records of %d: %v", i, br.Len(), len(recs), err)
			}
			k := br.Len()
			if !bytes.Equal(payload, AppendBlock(nil, stamped[i:i+k])) {
				t.Fatalf("frame of records %d..%d differs from their block", i, i+k-1)
			}
			if k > 1 && n > limit {
				t.Fatalf("frame of %d records has a %d-byte payload, over the %d cap", k, n, limit)
			}
			if i+k < len(recs) && len(AppendBlock(nil, stamped[i:i+k+1])) <= limit {
				t.Fatalf("frame of records %d..%d closed though the next fits the %d cap", i, i+k-1, limit)
			}
			i, b = i+k, b[FrameHeaderSize+n:]
		}
		if i != len(recs) {
			t.Fatalf("frames hold %d records of %d", i, len(recs))
		}
	})
}
