package ids

import (
	"fmt"

	"rad/internal/device"
	"rad/internal/store"
)

// RuleEngine is the first-line, middlebox-resident safeguard of Fig. 1: a
// set of stateless and stateful rules over the command stream that a
// restricted-command middlebox can enforce before any learned model exists.
// The paper notes rule-based IDS alone is insufficient (no accumulated
// experience covers all attacks, §I) — this engine is the baseline the
// learned detectors are measured against.
type RuleEngine struct {
	catalog map[string]device.CommandSpec
	// initialized tracks which devices have seen __init__.
	initialized map[string]bool
}

// Violation is one rule hit.
type Violation struct {
	Rule   string
	Record store.Record
	Detail string
}

// NewRuleEngine builds an engine enforcing the 52-command catalog, device
// initialization ordering, and that mutating commands do not fail.
func NewRuleEngine() *RuleEngine {
	return &RuleEngine{
		catalog:     device.CatalogByKey(),
		initialized: make(map[string]bool),
	}
}

// Check evaluates one trace record and returns any violations. The engine
// is stateful: call Check in stream order.
func (e *RuleEngine) Check(r store.Record) []Violation {
	var out []Violation

	spec, known := e.catalog[r.Key()]
	if !known {
		out = append(out, Violation{
			Rule: "unknown-command", Record: r,
			Detail: fmt.Sprintf("%s is not in the restricted command set", r.Key()),
		})
	}

	if r.Name == device.Init {
		e.initialized[r.Device] = true
	} else if !e.initialized[r.Device] {
		out = append(out, Violation{
			Rule: "uninitialized-device", Record: r,
			Detail: fmt.Sprintf("%s command before %s.__init__", r.Key(), r.Device),
		})
	}

	if known && spec.Mutating && r.Exception != "" {
		out = append(out, Violation{
			Rule: "actuation-fault", Record: r,
			Detail: fmt.Sprintf("mutating command %s raised: %s", r.Key(), r.Exception),
		})
	}
	return out
}
