// Package serial emulates the serial links that connect most of the Hein
// Lab's devices (Fig. 2): the C9 controller, IKA, Tecan, and the Quantos
// z-stage all speak line protocols over USB-serial behind the FTDI driver.
// The paper's RATracer intercepts at exactly this boundary (class
// FtdiDevice, Fig. 3); this package provides the boundary itself — an
// in-memory duplex serial port with baud-rate timing, a firmware adapter
// that exposes a simulated device over a newline-delimited wire protocol,
// and a client that implements device.Device across the link, so a device
// can be driven end to end through its serial stack.
package serial

import (
	"errors"
	"sync"
	"time"

	"rad/internal/simclock"
)

// DefaultBaud is the usual 115200-baud device link.
const DefaultBaud = 115200

// ErrClosed is returned on reads and writes to a closed port.
var ErrClosed = errors.New("serial: port closed")

// Port is one end of an emulated serial link. Writes charge transmission
// time (10 bits per byte at the link's baud rate) to the writer's clock and
// deliver bytes to the peer; reads block until data or close.
type Port struct {
	clock simclock.Clock
	baud  int

	mu     *sync.Mutex
	cond   *sync.Cond
	peer   *buffer
	local  *buffer
	closed *bool
}

// buffer is a byte queue shared between the two ends.
type buffer struct {
	data []byte
}

// Pipe creates a connected pair of ports at the given baud rate. Each end
// charges its transmission time to its own clock (the two ends may share a
// clock, as the virtual lab does). A non-positive baud selects DefaultBaud.
func Pipe(a, b simclock.Clock, baud int) (*Port, *Port) {
	if baud <= 0 {
		baud = DefaultBaud
	}
	mu := &sync.Mutex{}
	cond := sync.NewCond(mu)
	ab := &buffer{} // bytes flowing a -> b
	ba := &buffer{} // bytes flowing b -> a
	closed := false
	pa := &Port{clock: a, baud: baud, mu: mu, cond: cond, peer: ab, local: ba, closed: &closed}
	pb := &Port{clock: b, baud: baud, mu: mu, cond: cond, peer: ba, local: ab, closed: &closed}
	return pa, pb
}

// transmissionTime returns how long n bytes take on the wire (8 data bits +
// start + stop per byte).
func (p *Port) transmissionTime(n int) time.Duration {
	bits := float64(n * 10)
	return time.Duration(bits / float64(p.baud) * float64(time.Second))
}

// Write sends data to the peer, charging transmission time to this end's
// clock first (the UART clocks bytes out before the peer sees them).
func (p *Port) Write(data []byte) (int, error) {
	if len(data) == 0 {
		return 0, nil
	}
	p.clock.Sleep(p.transmissionTime(len(data)))
	p.mu.Lock()
	defer p.mu.Unlock()
	if *p.closed {
		return 0, ErrClosed
	}
	p.peer.data = append(p.peer.data, data...)
	p.cond.Broadcast()
	return len(data), nil
}

// Read fills buf with available bytes, blocking until at least one byte
// arrives or the link closes.
func (p *Port) Read(buf []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.local.data) == 0 {
		if *p.closed {
			return 0, ErrClosed
		}
		p.cond.Wait()
	}
	n := copy(buf, p.local.data)
	p.local.data = p.local.data[n:]
	return n, nil
}

// ReadLine reads up to and including the next '\n', returning the line
// without the terminator.
func (p *Port) ReadLine() (string, error) {
	var line []byte
	one := make([]byte, 1)
	for {
		if _, err := p.Read(one); err != nil {
			return "", err
		}
		if one[0] == '\n' {
			return string(line), nil
		}
		line = append(line, one[0])
	}
}

// WriteLine writes s followed by '\n'.
func (p *Port) WriteLine(s string) error {
	_, err := p.Write(append([]byte(s), '\n'))
	return err
}

// Close tears the link down; both ends see ErrClosed. Closing twice is
// harmless.
func (p *Port) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	*p.closed = true
	p.cond.Broadcast()
	return nil
}
