package mesh

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/stdcell"
)

// PowerDomain holds one power meter per mesh node, so whole-NoC power can
// be estimated for an application mapping — the system-level view of the
// paper's per-router comparison.
type PowerDomain struct {
	meters  []*power.Meter
	m       *Mesh
	freqMHz float64
}

// BindMeters attaches a meter to every assembly in the mesh. With gated
// true, every router applies the configuration-driven clock gating of
// Section 7.3 — unconfigured routers then cost only leakage plus their
// configuration memory's clock.
func (m *Mesh) BindMeters(lib stdcell.Lib, freqMHz float64, gated bool) *PowerDomain {
	meters := power.NewMeters(core.Netlist(m.P, lib), lib, freqMHz, len(m.nodes))
	// Every node prices its gated clock in this one copy of the library.
	for i, a := range m.nodes {
		a.BindMeter(meters[i], &lib, gated)
	}
	return &PowerDomain{meters: meters, m: m, freqMHz: freqMHz}
}

// Node returns the meter of one node.
func (d *PowerDomain) Node(c Coord) *power.Meter {
	if !d.m.InBounds(c) {
		panic(fmt.Sprintf("mesh: %v outside %dx%d", c, d.m.W, d.m.H))
	}
	return d.meters[c.Y*d.m.W+c.X]
}

// Report aggregates all node meters into one NoC-level breakdown.
// It panics (via the meter) if no cycles were simulated.
func (d *PowerDomain) Report(name string) power.Breakdown {
	total := power.Breakdown{Name: name, FreqMHz: d.freqMHz}
	for _, m := range d.meters {
		b := m.Report(name)
		total.Cycles = b.Cycles
		total.StaticUW += b.StaticUW
		total.InternalUW += b.InternalUW
		total.SwitchingUW += b.SwitchingUW
	}
	return total
}

// PerNode returns each node's breakdown in row-major order.
func (d *PowerDomain) PerNode(name string) []power.Breakdown {
	out := make([]power.Breakdown, len(d.meters))
	for i, m := range d.meters {
		out[i] = m.Report(name)
	}
	return out
}
