package middlebox

import (
	"rad/internal/device"
	"rad/internal/fault"
	"rad/internal/obs"
)

// Observe registers the middlebox's metrics into reg and arms per-exec
// latency measurement. Call before serving traffic, after the devices are
// registered (devices registered later are picked up automatically).
//
// The request/resilience counters are exported as pull-based mirrors of
// the Core's existing atomics, so enabling them adds nothing to the hot
// path; the only per-exec cost is one latency-histogram observe
// (rad_middlebox_exec_seconds{device,command}), whose duration comes from
// the injected clock — a virtual-clock campaign renders deterministic
// histograms, a real-clock server measures wall time.
func (c *Core) Observe(reg *obs.Registry) {
	c.obsReg = reg

	reg.SetHelp("rad_middlebox_requests_total", "Requests served, by middlebox protocol op.")
	reg.CounterFunc("rad_middlebox_requests_total", c.execs.Load, "op", "exec")
	reg.CounterFunc("rad_middlebox_requests_total", c.traces.Load, "op", "trace")
	reg.CounterFunc("rad_middlebox_requests_total", c.pings.Load, "op", "ping")
	reg.SetHelp("rad_middlebox_errors_total", "Requests that produced an error reply.")
	reg.CounterFunc("rad_middlebox_errors_total", c.errors.Load)
	reg.SetHelp("rad_middlebox_sink_errors_total", "Trace records the sink refused; the request itself still succeeded.")
	reg.CounterFunc("rad_middlebox_sink_errors_total", c.sinkErrs.Load)
	reg.SetHelp("rad_middlebox_exec_seconds", "REMOTE-mode exec latency as the client sees it, retries included.")

	// Hardened exec path activity (all zero when no ExecPolicy is set).
	reg.CounterFunc("rad_middlebox_exec_timeouts_total", c.timeouts.Load)
	reg.CounterFunc("rad_middlebox_exec_retries_total", c.retries.Load)
	reg.CounterFunc("rad_middlebox_exec_shed_total", c.shed.Load)
	reg.CounterFunc("rad_middlebox_exec_infra_errors_total", c.infraErrs.Load)

	for name, e := range c.devices {
		c.observeDevice(name, e)
	}
}

// observeDevice builds one device's latency histograms (prebuilt from the
// command catalog so the exec hot path never registers anything) and its
// breaker observability. The breaker metrics resolve the breaker at render
// time, so SetExecPolicy rebuilding the breakers — or Register replacing a
// device — never leaves them pointing at a stale one.
func (c *Core) observeDevice(name string, e *deviceEntry) {
	reg := c.obsReg
	hist := make(map[string]*obs.Histogram)
	for _, spec := range device.CatalogByKey() {
		if spec.Device == name {
			hist[spec.Name] = reg.Histogram("rad_middlebox_exec_seconds", nil, "device", name, "command", spec.Name)
		}
	}
	e.hist = hist
	e.histOther = reg.Histogram("rad_middlebox_exec_seconds", nil, "device", name, "command", "other")

	reg.SetHelp("rad_middlebox_breaker_state", "Circuit breaker position: 0 closed, 1 open, 2 half-open.")
	reg.GaugeFunc("rad_middlebox_breaker_state", func() float64 {
		return float64(c.breakerFor(name).State())
	}, "device", name)
	reg.CounterFunc("rad_middlebox_breaker_opens_total", func() uint64 {
		return c.breakerFor(name).Stats().Opens
	}, "device", name)
	reg.CounterFunc("rad_middlebox_breaker_sheds_total", func() uint64 {
		return c.breakerFor(name).Stats().Sheds
	}, "device", name)
	reg.CounterFunc("rad_middlebox_breaker_probes_total", func() uint64 {
		return c.breakerFor(name).Stats().Probes
	}, "device", name)
}

// breakerFor resolves a device's current breaker; nil (which reads as a
// permanently closed breaker) when the device is unknown or not hardened.
// Lock-free, so a fleet-wide metrics render never serializes tenants.
func (c *Core) breakerFor(name string) *fault.Breaker {
	if e := c.devices[name]; e != nil {
		return e.breaker
	}
	return nil
}
