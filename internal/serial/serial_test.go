package serial

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/device/ika"
	"rad/internal/simclock"
)

func TestPipeByteTransfer(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	a, b := Pipe(clock, clock, DefaultBaud)
	done := make(chan string, 1)
	go func() {
		line, err := b.ReadLine()
		if err != nil {
			done <- "err:" + err.Error()
			return
		}
		done <- line
	}()
	if err := a.WriteLine("hello device"); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got != "hello device" {
		t.Errorf("got %q", got)
	}
}

func TestWriteChargesBaudTime(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	a, _ := Pipe(clock, clock, 9600)
	payload := make([]byte, 960) // 9600 bits at 9600 baud = 1 s
	before := clock.Now()
	if _, err := a.Write(payload); err != nil {
		t.Fatal(err)
	}
	if got := clock.Now().Sub(before); got != time.Second {
		t.Errorf("960 bytes at 9600 baud charged %v, want 1s", got)
	}
}

func TestCloseUnblocksReader(t *testing.T) {
	clock := simclock.Real{}
	a, b := Pipe(clock, clock, 0)
	errCh := make(chan error, 1)
	go func() {
		_, err := b.ReadLine()
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("reader got %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("reader still blocked after close")
	}
	if _, err := a.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close: %v", err)
	}
	_ = b.Close() // double close harmless
}

func TestProtocolEncodeValidation(t *testing.T) {
	bad := []device.Command{
		{Name: ""},
		{Name: "has space"},
		{Name: "ok", Args: []string{""}},
		{Name: "ok", Args: []string{"with space"}},
		{Name: "ok\nnewline"},
	}
	for _, cmd := range bad {
		if _, err := encodeRequest(cmd); !errors.Is(err, ErrBadFrame) {
			t.Errorf("encode %+v: want ErrBadFrame, got %v", cmd, err)
		}
	}
	line, err := encodeRequest(device.Command{Name: "ARM", Args: []string{"1", "2", "3"}})
	if err != nil || line != "ARM 1 2 3" {
		t.Errorf("encode: %q, %v", line, err)
	}
}

// endToEnd drives a real device simulator through its full serial stack.
func endToEnd(t *testing.T, dev device.Device) (*Client, func()) {
	t.Helper()
	clock := simclock.NewVirtual(time.Unix(0, 0))
	labEnd, devEnd := Pipe(clock, clock, DefaultBaud)
	fw := NewFirmware(dev, devEnd)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fw.Serve()
	}()
	client := NewClient(dev.Name(), labEnd)
	return client, func() {
		_ = labEnd.Close()
		wg.Wait()
	}
}

func TestC9OverSerial(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	client, stop := endToEnd(t, c9.New(device.NewEnv(clock, 1)))
	defer stop()

	if v, err := client.Exec(device.Command{Name: device.Init}); err != nil || v != "ok" {
		t.Fatalf("init over serial: %q, %v", v, err)
	}
	if v, err := client.Exec(device.Command{Name: "MVNG"}); err != nil || v != "0 0 0 0" {
		t.Fatalf("MVNG over serial: %q, %v (multi-word values must survive)", v, err)
	}
	if _, err := client.Exec(device.Command{Name: "ARM", Args: []string{"10", "20", "30"}}); err != nil {
		t.Fatalf("ARM over serial: %v", err)
	}
	// Device errors arrive as RemoteDeviceError.
	_, err := client.Exec(device.Command{Name: "SPED", Args: []string{"-1"}})
	var rde *RemoteDeviceError
	if !errors.As(err, &rde) {
		t.Fatalf("want RemoteDeviceError, got %v", err)
	}
	if !strings.Contains(rde.Msg, "bad arguments") {
		t.Errorf("error message %q", rde.Msg)
	}
}

func TestIKAOverSerial(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	client, stop := endToEnd(t, ika.New(device.NewEnv(clock, 1)))
	defer stop()
	if _, err := client.Exec(device.Command{Name: device.Init}); err != nil {
		t.Fatal(err)
	}
	v, err := client.Exec(device.Command{Name: "IN_NAME"})
	if err != nil || v != "C-MAG HS7" {
		t.Fatalf("IN_NAME = %q, %v", v, err)
	}
}

func TestFirmwareRejectsGarbage(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	labEnd, devEnd := Pipe(clock, clock, 0)
	fw := NewFirmware(c9.New(device.NewEnv(clock, 1)), devEnd)
	go fw.Serve()
	defer labEnd.Close()

	// An empty request line is malformed.
	if err := labEnd.WriteLine(""); err != nil {
		t.Fatal(err)
	}
	resp, err := labEnd.ReadLine()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp, "ERR") {
		t.Errorf("garbage line produced %q", resp)
	}
}

func TestClientConcurrentExecSerialized(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	client, stop := endToEnd(t, c9.New(device.NewEnv(clock, 1)))
	defer stop()
	if _, err := client.Exec(device.Command{Name: device.Init}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := client.Exec(device.Command{Name: "MVNG"}); err != nil {
					t.Errorf("concurrent MVNG: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
