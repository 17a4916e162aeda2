package fleet

import "rad/internal/obs"

// observe registers the fleet-wide rollup metrics. Every callback is a
// pull-based mirror of an atomic the router already maintains — rendering
// the fleet's metrics costs the tenants nothing.
func (r *Router) observe(reg *obs.Registry) {
	reg.SetHelp("rad_fleet_tenants", "Lab instances the router has instantiated.")
	reg.GaugeFunc("rad_fleet_tenants", func() float64 { return float64(r.tenants.Load()) })
	reg.SetHelp("rad_fleet_routed_total", "Requests routed to a tenant core.")
	reg.CounterFunc("rad_fleet_routed_total", r.routed.Load)
	reg.SetHelp("rad_fleet_rejected_total", "Requests refused before reaching a core (bad tenant id, tenant cap, factory failure).")
	reg.CounterFunc("rad_fleet_rejected_total", r.rejected.Load)
}

// observeTenant registers one tenant's child metrics at creation time:
// its routed-request counter and, when the lab spills to a dead-letter
// queue, the per-tenant spill/drain outcome counters (ISSUE 7 satellite —
// recoveries get tenant-labelled visibility, not just spills).
func (r *Router) observeTenant(t *Tenant, res *Resources) {
	reg := r.cfg.Registry
	reg.SetHelp("rad_fleet_tenant_requests_total", "Requests routed to this tenant.")
	reg.CounterFunc("rad_fleet_tenant_requests_total", t.requests.Load, "tenant", t.ID)
	if dlq := res.DLQ; dlq != nil {
		reg.CounterFunc("rad_store_spilled_batches_total", func() uint64 {
			return dlq.Stats().SpilledBatches
		}, "tenant", t.ID)
		reg.CounterFunc("rad_store_spilled_records_total", func() uint64 {
			return dlq.Stats().SpilledRecords
		}, "tenant", t.ID)
		dlq.Observe(reg, "tenant", t.ID)
	}
}
