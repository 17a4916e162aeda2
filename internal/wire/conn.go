package wire

// The connection handshake and the framed connection.
//
// A client opens its connection with the five-byte preamble — the magic
// "RAD2" followed by the version byte — and waits for the server to echo
// it before the first frame. A listener reads exactly those five bytes
// and drops the connection, unanswered, when they are anything else: a
// legacy length-prefixed frame, garbage, or another version.
//
//	client                         server
//	  | 'R''A''D''2' 0x02  ----->   |    (preamble)
//	  |        <-----  'R''A''D''2' 0x02 (ack)
//	  | binary frames  <---------> binary frames

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"rad/internal/store"
)

// Version is the wire protocol version the preamble carries.
type Version byte

// V2 is the compact binary framing of binary.go, the only version.
const V2 Version = 2

// Proto is the argument of the deprecated protocol selectors
// (middlebox.Server.SetProtocol, stream.Server.SetProtocol,
// tracer.DialTCPProto, stream.DialProto), which survive for perfbench
// alone. ProtoV2 is its only value.
type Proto int

// ProtoV2 selects the binary framing every connection speaks.
const ProtoV2 Proto = 2

// preambleLen is the size of the connection preamble: 4 magic bytes plus
// the version byte.
const preambleLen = 5

// preamble is the connection opener and its ack: magic + version.
var preamble = [preambleLen]byte{'R', 'A', 'D', '2', byte(V2)}

// prefixLen bounds the uvarint length prefix a legal frame can need
// (MaxFrameSize fits in 3 bytes; 5 leaves headroom).
const prefixLen = 5

// connBufSize sizes each connection's read buffer: most frames fit.
const connBufSize = 8 << 10

// Conn is one framed wire connection. A Conn is not safe for concurrent use
// of the same direction; the request/reply and tail protocols already
// serialize each direction.
type Conn struct {
	w  io.Writer
	br *bufio.Reader
	m  *Metrics

	// out holds encoded frames not yet written (Buffer, Flush): a pooled
	// buffer while frames are pending, nil otherwise. Like the codec it is
	// single-threaded per direction.
	out *[]byte
	// iov and bufs hand the pending output and a large block to one
	// vectored write without allocating (flush).
	iov  [2][]byte
	bufs net.Buffers

	// in is the read buffer of frames up to pooledLimit, grown to the
	// largest of them read so far. block is that of a larger frame (a block
	// event): a store block buffer (store.GrowBlockBuf), held from the frame
	// that needs it until the next ReadFrame that does not, which hands it
	// back to store's spares. A decoded Event's Block aliases one or the
	// other, so neither is let go while the caller may still read it.
	in    []byte
	block *[]byte

	// capture, when set, retains the latest per-frame codec latencies for
	// LastCodecLatency. Like the metrics timers it measures the marshal step
	// only — never socket I/O — so a span built from it reflects codec work,
	// not idle wait. Single-threaded per direction, like the codec itself.
	capture bool
	lastDec time.Duration
	lastEnc time.Duration
}

// NewConn wraps rw as a framed connection with no handshake bytes
// exchanged — the building block for Accept and Client, and for tests and
// benchmarks that want a codec without a socket. The version argument
// names the framing; V2 is the only one. m may be nil.
func NewConn(rw io.ReadWriter, _ Version, m *Metrics) *Conn {
	return &Conn{w: rw, br: bufio.NewReaderSize(rw, connBufSize), m: m}
}

// Accept performs the server side of the handshake on a fresh connection:
// it reads the client's preamble and acks it. A peer that opens with
// anything else gets an error and no reply; the caller drops it.
func Accept(rw io.ReadWriter, m *Metrics) (*Conn, error) {
	c := NewConn(rw, V2, m)
	var pre [preambleLen]byte
	if _, err := io.ReadFull(c.br, pre[:]); err != nil {
		return nil, fmt.Errorf("wire: read preamble: %w", err)
	}
	if [4]byte(pre[:4]) != [4]byte(preamble[:4]) {
		return nil, fmt.Errorf("wire: bad preamble % x (not a RAD2 client)", pre[:])
	}
	if pre[4] != byte(V2) {
		return nil, fmt.Errorf("wire: unsupported protocol version %d (want %d)", pre[4], V2)
	}
	if _, err := rw.Write(preamble[:]); err != nil {
		return nil, fmt.Errorf("wire: write preamble ack: %w", err)
	}
	c.countConn()
	return c, nil
}

// Client performs the client side of the handshake: preamble out, ack in.
// The error distinguishes a dead connection from a server that answered
// with something other than the ack.
func Client(rw io.ReadWriter, m *Metrics) (*Conn, error) {
	c := NewConn(rw, V2, m)
	if _, err := rw.Write(preamble[:]); err != nil {
		return nil, fmt.Errorf("wire: write preamble: %w", err)
	}
	var ack [preambleLen]byte
	if _, err := io.ReadFull(c.br, ack[:]); err != nil {
		return nil, fmt.Errorf("wire: handshake: no preamble ack: %w", err)
	}
	if ack != preamble {
		return nil, fmt.Errorf("wire: handshake: bad ack % x", ack[:])
	}
	c.countConn()
	return c, nil
}

// Dial connects to addr and performs the client handshake.
func Dial(addr string, m *Metrics) (net.Conn, *Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	wc, err := Client(conn, m)
	if err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	return conn, wc, nil
}

// ReadFrame reads one frame and decodes it into v. An Event's Block is not
// copied: it aliases the connection's read buffer until the next
// ReadFrame, so a caller reads the block before reading on. After that the
// bytes may be another connection's: a block's buffer goes back to the
// spares every connection in the process shares.
func (c *Conn) ReadFrame(v any) error {
	size, err := binary.ReadUvarint(c.br)
	if err != nil || size <= pooledLimit || size > MaxFrameSize {
		// The caller is done with the previous frame, and this one needs
		// no block buffer.
		store.PutBlockBuf(c.block)
		c.block = nil
	}
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("wire: read frame header: %w", err)
	}
	if size > MaxFrameSize {
		return frameTooLarge(size)
	}
	payload := c.payload(int(size))
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return fmt.Errorf("wire: read frame payload: %w", err)
	}
	start := c.stamp()
	if err := decodeBinaryFrame(payload, v); err != nil {
		return err
	}
	c.observeRead(start)
	return nil
}

// payload returns the buffer an n-byte frame is read into: the
// connection's own up to pooledLimit, a store block buffer above it.
func (c *Conn) payload(n int) []byte {
	if n <= pooledLimit {
		return sizeBuf(&c.in, n)
	}
	c.block = store.GrowBlockBuf(c.block, n)
	return *c.block
}

// flushThreshold is the pending output at which Buffer writes: large
// enough that a replay of small event frames costs one syscall per few
// hundred records, small enough that the buffer stays a pooled one.
const flushThreshold = 32 << 10

// Buffer encodes v as one frame behind any frames already pending and
// writes them all with a single Write once the pending output reaches
// flushThreshold. Below it the frame waits for the next Flush (or the
// Buffer call that crosses the threshold), so a caller queuing a burst
// must Flush when the burst ends. A frame that fails to encode leaves the
// pending frames untouched; a failed Write drops them with the connection.
func (c *Conn) Buffer(v any) error {
	start, mark := c.open()
	buf, err := appendBinaryFrame(append(*c.out, 0), v)
	return c.seal(start, mark, buf, nil, err)
}

// BufferBlock is Buffer for an EventTrace frame carrying block, a store
// block, except that the block is not copied: the pending frames, the
// frame's other fields and the block go out at once in one vectored write,
// the block straight from the caller's slice. It is not part of Buffer
// because handing the caller's bytes to the writer would make every frame
// Buffer encodes escape to the heap.
func (c *Conn) BufferBlock(block []byte) error {
	start, mark := c.open()
	ev := Event{Kind: EventTrace, Block: block}
	return c.seal(start, mark, appendEvent(append(*c.out, 0), &ev), block, nil)
}

// open readies the pending output for a frame and returns the encode
// timer's start and the offset the frame starts at. The frame's first byte
// is reserved for its uvarint length prefix, enough for any frame under
// 128 bytes; seal shifts a longer payload right to make room.
func (c *Conn) open() (start time.Time, mark int) {
	if c.out == nil {
		c.out = getBuf()
		*c.out = (*c.out)[:0]
	}
	return c.stamp(), len(*c.out)
}

// seal completes the frame buf holds from mark on, which block, when not
// nil, follows on the wire: it writes the length prefix, and writes the
// pending output when block is set or the output reached flushThreshold.
// A frame that failed to encode (err) or is too large is dropped.
func (c *Conn) seal(start time.Time, mark int, buf, block []byte, err error) error {
	*c.out = buf // keep any growth for the pool
	if err != nil {
		c.truncate(mark)
		return err
	}
	head := len(buf) - mark - 1
	n := head + len(block)
	if n > MaxFrameSize {
		c.truncate(mark)
		return frameTooLarge(uint64(n))
	}
	var prefix [prefixLen]byte
	ln := binary.PutUvarint(prefix[:], uint64(n))
	if ln > 1 {
		buf = append(buf, prefix[1:ln]...)
		copy(buf[mark+ln:], buf[mark+1:mark+1+head])
	}
	copy(buf[mark:], prefix[:ln])
	*c.out = buf
	c.observeWrite(start)
	if block != nil || len(buf) >= flushThreshold {
		return c.flush(block)
	}
	return nil
}

// Flush writes every pending frame with a single Write call and returns
// the emptied buffer to the pool, so an idle connection holds none.
func (c *Conn) Flush() error { return c.flush(nil) }

// flush is Flush, with block — the last pending frame's block bytes —
// written after the pending output in the same vectored write.
func (c *Conn) flush(block []byte) error {
	pb := c.out
	if pb == nil {
		return nil
	}
	c.out = nil
	var err error
	if block == nil {
		_, err = c.w.Write(*pb)
	} else {
		c.iov = [2][]byte{*pb, block}
		c.bufs = c.iov[:]
		_, err = c.bufs.WriteTo(c.w)
		c.iov, c.bufs = [2][]byte{}, nil
	}
	putBuf(pb)
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// WriteFrame writes v, behind any pending frames, as one Write call: Buffer
// then Flush.
func (c *Conn) WriteFrame(v any) error {
	if err := c.Buffer(v); err != nil {
		return err
	}
	return c.Flush()
}

// truncate drops output past mark — a frame that failed to encode — and
// releases the buffer when nothing is left pending.
func (c *Conn) truncate(mark int) {
	if mark > 0 {
		*c.out = (*c.out)[:mark]
		return
	}
	putBuf(c.out)
	c.out = nil
}

// CaptureCodecLatency turns on per-frame codec-latency capture so a server
// can record wire decode/encode spans without attaching full Metrics.
func (c *Conn) CaptureCodecLatency() { c.capture = true }

// LastCodecLatency reports the codec time of the most recent read and write
// on this connection. Zero until CaptureCodecLatency is enabled and a frame
// has moved in that direction.
func (c *Conn) LastCodecLatency() (dec, enc time.Duration) {
	return c.lastDec, c.lastEnc
}

// stamp returns the encode/decode timer start, or the zero time when the
// connection is uninstrumented — the hot path pays nothing for metrics it
// does not have.
func (c *Conn) stamp() time.Time {
	if c.m == nil && !c.capture {
		return time.Time{}
	}
	return time.Now()
}

func (c *Conn) countConn() {
	if c.m != nil {
		c.m.conns.Inc()
	}
}

func (c *Conn) observeRead(start time.Time) {
	if c.m == nil && !c.capture {
		return
	}
	d := time.Since(start)
	if c.capture {
		c.lastDec = d
	}
	if c.m != nil {
		c.m.rx.Inc()
		c.m.dec.Observe(d)
	}
}

func (c *Conn) observeWrite(start time.Time) {
	if c.m == nil && !c.capture {
		return
	}
	d := time.Since(start)
	if c.capture {
		c.lastEnc = d
	}
	if c.m != nil {
		c.m.tx.Inc()
		c.m.enc.Observe(d)
	}
}
