package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/bits"
	"time"
	"unsafe"
)

// The record encoding: the one binary form of a Record, used both for
// tracedb's block payloads and for the record a wire trace event carries.
// Integers are varints, strings are length-prefixed bytes, and the fields
// are positional, so a record delimits itself:
//
//	uvarint seq
//	varint  timeNanos, endTimeNanos
//	string  device, name
//	uvarint nargs, then nargs strings
//	string  response, exception, procedure, run, mode
//
// A time is an instant: it is written as UnixNano and decodes as
// time.Unix(0, n), so neither its zone nor its monotonic reading survives.
// The zero time is written as time.Time{}.UnixNano() and decodes back to
// the zero time, which reserves that one instant,
// 1754-08-30T22:43:41.128654848Z. Other times outside the UnixNano range
// (years before 1678 or after 2262) are not representable; device traces
// are always inside it.
//
// The encoding is canonical: re-encoding a decoded record reproduces its
// bytes. TraceID and SpanID are not part of it.

// MinRecordBytes is the size of the smallest encoded record: three
// one-byte varints and eight zero lengths. A decoder bounds an announced
// record count by it before allocating.
const MinRecordBytes = 11

// zeroNanos is what the zero time encodes as.
var zeroNanos = time.Time{}.UnixNano()

// AppendRecord appends r's encoding to b.
func AppendRecord(b []byte, r *Record) []byte { return appendRecord(b, r, r.Seq) }

// appendRecord appends r's encoding to b, with seq in place of r.Seq.
func appendRecord(b []byte, r *Record, seq uint64) []byte {
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendVarint(b, r.Time.UnixNano())
	b = binary.AppendVarint(b, r.EndTime.UnixNano())
	b = appendString(b, r.Device)
	b = appendString(b, r.Name)
	b = binary.AppendUvarint(b, uint64(len(r.Args)))
	for _, a := range r.Args {
		b = appendString(b, a)
	}
	b = appendString(b, r.Response)
	b = appendString(b, r.Exception)
	b = appendString(b, r.Procedure)
	b = appendString(b, r.Run)
	return appendString(b, r.Mode)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// DecodeRecord parses one record from the front of b into *r, replacing
// all of it, and reports the bytes it consumed; ok is false when b does not
// start with a whole record, and *r then holds no valid record. Decoding
// in place spares a caller that keeps or reuses a record a copy of it. It
// never panics: every length is checked against the bytes left before
// anything is allocated. Every string is a copy of its bytes or the shared
// instance of an intern-table word (Intern), and Args is a fresh slice, so
// the record never aliases b and a copy of it never aliases r.
func DecodeRecord(b []byte, r *Record) (n int, ok bool) {
	return decodeRecord(b, r, nil)
}

// decodeRecord is DecodeRecord, with the strings and Args taken from a
// when it is not nil.
func decodeRecord(b []byte, r *Record, a *arena) (n int, ok bool) {
	d := recordDecoder{b: b, arena: a}
	r.Seq = d.uvarint()
	r.Time = d.time()
	r.EndTime = d.time()
	r.Device = d.str()
	r.Name = d.str()
	r.Args = nil
	if nargs := d.uvarint(); nargs > uint64(len(d.b)) {
		d.bad = true
	} else if nargs > 0 {
		r.Args = d.args(int(nargs))
		for i := range r.Args {
			r.Args[i] = d.str()
		}
	}
	r.Response = d.str()
	r.Exception = d.str()
	r.Procedure = d.str()
	r.Run = d.str()
	r.Mode = d.str()
	r.TraceID, r.SpanID = 0, 0
	if d.bad {
		return 0, false
	}
	return len(b) - len(d.b), true
}

// A block is a uvarint record count followed by that many records and
// nothing after them. It is tracedb's block payload, and what a wire trace
// event carries when a snapshot replay forwards a stored block undecoded.

// ErrCorruptBlock reports a block whose bytes do not hold the records its
// count announces: the count exceeds what the bytes can hold, a record does
// not decode, or bytes follow the last record.
var ErrCorruptBlock = errors.New("store: corrupt block")

// AppendBlock appends the block of recs to b.
func AppendBlock(b []byte, recs []Record) []byte {
	b = binary.AppendUvarint(b, uint64(len(recs)))
	for i := range recs {
		b = AppendRecord(b, &recs[i])
	}
	return b
}

// A frame is how a block is stored: a 4-byte big-endian payload length,
// the payload's 4-byte big-endian CRC32C, then the payload, which is a
// block. A tracedb segment is a run of frames after its magic header, and
// a dead-letter spill is one frame, so AppendFrame writes both and
// ParseFrameHeader and CheckFrame check both.

// FrameHeaderSize is the length + checksum prefix of every frame.
const FrameHeaderSize = 8

// MaxFramePayload bounds a frame's payload, so a corrupted length field can
// never force an unbounded allocation.
const MaxFramePayload = 16 << 20

// ErrCorruptFrame reports a frame whose header is short, whose length is
// zero or above MaxFramePayload, or whose payload fails its checksum.
var ErrCorruptFrame = errors.New("store: corrupt frame")

// castagnoli is the CRC32C polynomial table of frame checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends the frame of the block of recs to b.
func AppendFrame(b []byte, recs []Record) []byte {
	start := len(b)
	b = AppendBlock(append(b, make([]byte, FrameHeaderSize)...), recs)
	sealFrame(b[start:])
	return b
}

// AppendFrames appends recs to b as a run of frames, each the block of the
// records that follow the last frame's. A frame is closed before the
// record that would carry its payload past maxPayload bytes, as encoded, so
// a frame passes maxPayload only when it holds a lone record that does.
// When numbered, record i is written with Seq seq+i, whatever its own Seq
// holds: a sequencer writes the batch it numbers this way instead of
// stamping the numbers on a copy of it. A frame's record count is the
// uvarint that opens its payload. A batch that fits one frame is written
// once, as AppendFrame would write the batch so numbered: the count prefix
// is sized for every record left, and only a frame closed early, whose
// count may need fewer bytes, moves its records.
func AppendFrames(b []byte, recs []Record, seq uint64, numbered bool, maxPayload int) []byte {
	for len(recs) > 0 {
		start := len(b)
		b = binary.AppendUvarint(append(b, make([]byte, FrameHeaderSize)...), uint64(len(recs)))
		body := len(b)
		k := 0
		for ; k < len(recs); k++ {
			end, s := len(b), recs[k].Seq
			if numbered {
				s = seq + uint64(k)
			}
			b = appendRecord(b, &recs[k], s)
			if k > 0 && uvarintLen(uint64(k+1))+len(b)-body > maxPayload {
				b = b[:end]
				break
			}
		}
		if k < len(recs) {
			at := start + FrameHeaderSize
			n := binary.PutUvarint(b[at:], uint64(k))
			b = b[:at+n+copy(b[at+n:], b[body:])]
		}
		sealFrame(b[start:])
		recs, seq = recs[k:], seq+uint64(k)
	}
	return b
}

// sealFrame fills in the header of the frame f holds: its payload's length
// and checksum.
func sealFrame(f []byte) {
	payload := f[FrameHeaderSize:]
	binary.BigEndian.PutUint32(f, uint32(len(payload)))
	binary.BigEndian.PutUint32(f[4:], crc32.Checksum(payload, castagnoli))
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// ParseFrameHeader reads the frame header at the front of h: the payload's
// length and checksum. It fails with ErrCorruptFrame when h is shorter
// than a header or the length is zero or above MaxFramePayload.
func ParseFrameHeader(h []byte) (n int, crc uint32, err error) {
	if len(h) < FrameHeaderSize {
		return 0, 0, ErrCorruptFrame
	}
	n = int(binary.BigEndian.Uint32(h))
	if n == 0 || n > MaxFramePayload {
		return 0, 0, ErrCorruptFrame
	}
	return n, binary.BigEndian.Uint32(h[4:]), nil
}

// CheckFrame fails with ErrCorruptFrame when payload's CRC32C is not crc.
func CheckFrame(payload []byte, crc uint32) error {
	if crc32.Checksum(payload, castagnoli) != crc {
		return ErrCorruptFrame
	}
	return nil
}

// BlockReader decodes a block one record at a time, so a reader holds the
// block's bytes and one record rather than a slice of all of them. The zero
// BlockReader holds no records.
type BlockReader struct {
	b    []byte // bytes not yet decoded
	left int    // records not yet decoded
	// arena holds the strings and Args of the records Next decodes. Reset
	// keeps it, so a reader decoding block after block fills each chunk
	// before it allocates the next.
	arena arena
}

// Reset starts reading block b, which the reader keeps, uncopied, until its
// last record is read. It fails with ErrCorruptBlock, allocating nothing,
// when b does not open with a record count, when the count exceeds the
// records its bytes can hold at MinRecordBytes each, or when b announces no
// records yet holds more bytes.
func (br *BlockReader) Reset(b []byte) error {
	br.b, br.left = nil, 0
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64((len(b)-n)/MinRecordBytes) || (count == 0 && n != len(b)) {
		return ErrCorruptBlock
	}
	br.b, br.left = b[n:], int(count)
	return nil
}

// Len reports how many records are left to read.
func (br *BlockReader) Len() int { return br.left }

// Next decodes the next record into *r, as DecodeRecord would, except
// that the record's strings that are not intern-table words, and its Args,
// are carved from chunks of a few KiB the reader shares across the records
// it decodes, instead of allocated one by one. A chunk is append-only, so a
// record never aliases the block, r's earlier contents or another record,
// and a copy of it stays valid however many records are decoded after it;
// but a record kept alive keeps its chunks alive. It fails with
// ErrCorruptBlock when no record is left, when the record does not decode,
// or when bytes follow the block's last record; a failure ends the block,
// leaving Len at zero.
func (br *BlockReader) Next(r *Record) error {
	if br.left == 0 {
		return ErrCorruptBlock
	}
	n, ok := decodeRecord(br.b, r, &br.arena)
	br.left--
	if !ok || (br.left == 0 && n != len(br.b)) {
		br.b, br.left = nil, 0
		return ErrCorruptBlock
	}
	br.b = br.b[n:]
	if br.left == 0 {
		br.b = nil
	}
	return nil
}

// recordDecoder reads fields off the front of b. bad is set at the first
// malformed field; reading on past it is harmless, since every read is
// bounds-checked, and DecodeRecord then discards the result. Strings and
// Args come from arena when it is set.
type recordDecoder struct {
	b     []byte
	bad   bool
	arena *arena
}

func (d *recordDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *recordDecoder) time() time.Time {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.bad = true
		return time.Time{}
	}
	d.b = d.b[n:]
	if v == zeroNanos {
		return time.Time{}
	}
	return time.Unix(0, v)
}

func (d *recordDecoder) str() string {
	l := d.uvarint()
	if l > uint64(len(d.b)) {
		d.bad = true
		return ""
	}
	b := d.b[:l]
	d.b = d.b[l:]
	if d.arena != nil {
		return d.arena.str(b)
	}
	return Intern(b)
}

// args returns a record's n Args, all empty.
func (d *recordDecoder) args(n int) []string {
	if d.arena != nil {
		return d.arena.args(n)
	}
	return make([]string, n)
}

// An arena hands out the strings and Args slices of the records a
// BlockReader decodes from shared chunks. Each chunk is append-only: the
// arena never writes a byte or slot again once it has handed it out, and
// moves on to a fresh chunk when the current one is full, leaving the old
// one to the records that point into it.
type arena struct {
	bytes []byte   // string chunk: bytes[:len] handed out, the rest free
	slots []string // Args chunk: slots[:len] handed out, the rest free
}

const (
	arenaBytes = 4 << 10 // bytes per string chunk
	arenaSlots = 256     // strings per Args chunk, 4 KiB of headers
)

// str returns b as a string: the shared instance of an intern-table word,
// else a copy of b in the string chunk. A string longer than an eighth of a
// chunk gets an allocation of its own, so a chunk is never mostly waste.
func (a *arena) str(b []byte) string {
	if s, ok := Interned(b); ok || len(b) == 0 {
		return s
	}
	if len(b) > arenaBytes/8 {
		return string(b)
	}
	if cap(a.bytes)-len(a.bytes) < len(b) {
		a.bytes = make([]byte, 0, arenaBytes)
	}
	off := len(a.bytes)
	a.bytes = append(a.bytes, b...)
	return unsafe.String(&a.bytes[off], len(b))
}

// args returns n empty strings from the Args chunk, capped at n so that
// appending to them never reaches another record's. A long list gets an
// allocation of its own, as a long string does.
func (a *arena) args(n int) []string {
	if n > arenaSlots/8 {
		return make([]string, n)
	}
	if cap(a.slots)-len(a.slots) < n {
		a.slots = make([]string, 0, arenaSlots)
	}
	off := len(a.slots)
	a.slots = a.slots[:off+n]
	return a.slots[off : off+n : off+n]
}
