package serial

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"rad/internal/device"
)

// The wire protocol is the newline-delimited request/response format the
// Hein Lab's low-level drivers use:
//
//	request:  NAME [arg1 arg2 ...]\n
//	response: OK [value]\n   |   ERR message\n
//
// Command names and arguments must not contain whitespace or newlines;
// response values may contain spaces (e.g. the C9's "0 0 0 0").

// ErrBadFrame is returned for malformed protocol lines.
var ErrBadFrame = errors.New("serial: malformed protocol line")

// encodeRequest renders a command as a request line.
func encodeRequest(cmd device.Command) (string, error) {
	if cmd.Name == "" || strings.ContainsAny(cmd.Name, " \n") {
		return "", fmt.Errorf("serial: invalid command name %q: %w", cmd.Name, ErrBadFrame)
	}
	parts := []string{cmd.Name}
	for _, a := range cmd.Args {
		if a == "" || strings.ContainsAny(a, " \n") {
			return "", fmt.Errorf("serial: invalid argument %q: %w", a, ErrBadFrame)
		}
		parts = append(parts, a)
	}
	return strings.Join(parts, " "), nil
}

// decodeRequest parses a request line.
func decodeRequest(line string) (name string, args []string, err error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", nil, ErrBadFrame
	}
	return fields[0], fields[1:], nil
}

// Firmware serves one simulated device over a serial port: the device-side
// microcontroller loop. Run Serve in its own goroutine; it exits when the
// link closes.
type Firmware struct {
	dev  device.Device
	port *Port
}

// NewFirmware binds a device to the device end of a serial link.
func NewFirmware(dev device.Device, port *Port) *Firmware {
	return &Firmware{dev: dev, port: port}
}

// Serve processes requests until the link closes. Malformed lines produce
// ERR responses; the loop only stops on transport errors.
func (f *Firmware) Serve() {
	for {
		line, err := f.port.ReadLine()
		if err != nil {
			return
		}
		name, args, err := decodeRequest(line)
		var resp string
		if err != nil {
			resp = "ERR " + err.Error()
		} else {
			value, execErr := f.dev.Exec(device.Command{Device: f.dev.Name(), Name: name, Args: args})
			if execErr != nil {
				resp = "ERR " + strings.ReplaceAll(execErr.Error(), "\n", " ")
			} else {
				resp = strings.TrimRight("OK "+value, " ")
			}
		}
		if err := f.port.WriteLine(resp); err != nil {
			return
		}
	}
}

// RemoteDeviceError is the client-side form of a device error reported over
// the serial protocol.
type RemoteDeviceError struct{ Msg string }

func (e *RemoteDeviceError) Error() string { return e.Msg }

// Client implements device.Device across a serial link: the lab computer's
// driver class for a serially attached instrument. Requests are serialized;
// the link is strictly request/response.
type Client struct {
	name string
	mu   sync.Mutex
	port *Port
}

var _ device.Device = (*Client)(nil)

// NewClient wraps the lab-computer end of a serial link for the named
// device.
func NewClient(name string, port *Port) *Client {
	return &Client{name: name, port: port}
}

// Name implements device.Device.
func (c *Client) Name() string { return c.name }

// Exec implements device.Device by one request/response exchange.
func (c *Client) Exec(cmd device.Command) (string, error) {
	line, err := encodeRequest(cmd)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.port.WriteLine(line); err != nil {
		return "", fmt.Errorf("serial: send %s: %w", cmd.Name, err)
	}
	resp, err := c.port.ReadLine()
	if err != nil {
		return "", fmt.Errorf("serial: response to %s: %w", cmd.Name, err)
	}
	switch {
	case resp == "OK":
		return "", nil
	case strings.HasPrefix(resp, "OK "):
		return resp[3:], nil
	case strings.HasPrefix(resp, "ERR "):
		return "", &RemoteDeviceError{Msg: resp[4:]}
	default:
		return "", fmt.Errorf("serial: response %q: %w", resp, ErrBadFrame)
	}
}
