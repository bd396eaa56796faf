// Package router models the ServerNet 6-port router ASIC's configuration
// surface: destination-indexed routing tables (held in package routing) and
// the per-port path-disable registers of §2.4, which restrict the turns a
// router will perform regardless of what the routing table says. Disables
// are the hardware backstop that keeps the network deadlock-free even if a
// fault corrupts a routing table.
package router

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/topology"
)

// Disables is a per-router turn permission matrix: Allowed(dev, in, out)
// reports whether a packet that entered router dev on port in may leave on
// port out.
type Disables struct {
	net     *topology.Network
	allowed map[topology.DeviceID][][]bool
}

// AllowAll returns a permission matrix with every turn enabled except
// u-turns (in == out), which ServerNet routers never perform.
func AllowAll(net *topology.Network) *Disables {
	d := &Disables{net: net, allowed: make(map[topology.DeviceID][][]bool)}
	for _, dev := range net.Devices() {
		if dev.Kind != topology.Router {
			continue
		}
		m := newMatrix(dev.Ports)
		for in := 0; in < dev.Ports; in++ {
			for out := 0; out < dev.Ports; out++ {
				m[in][out] = in != out
			}
		}
		d.allowed[dev.ID] = m
	}
	return d
}

// FromTables computes the minimal disable configuration for a routing: only
// the turns the routing's routes actually use are enabled. Because the
// channel dependency graph's edges coincide exactly with used turns (see
// internal/deadlock), a network whose CDG is acyclic remains deadlock-free
// under ANY table contents once these disables are loaded.
func FromTables(t *routing.Tables) (*Disables, error) {
	turns, err := t.UsedTurns()
	if err != nil {
		return nil, err
	}
	return FromTurns(t.Net, turns), nil
}

// FromTurns builds the disable configuration enabling exactly the given
// per-router turn sets. Callers that already hold a route set (the fabric
// verifier's fault enumeration, online recertification) use it to
// recompute path-disables for a degraded fabric without routing all pairs
// a second time.
func FromTurns(net *topology.Network, turns map[topology.DeviceID]map[routing.Turn]bool) *Disables {
	d := &Disables{net: net, allowed: make(map[topology.DeviceID][][]bool)}
	for _, dev := range net.Devices() {
		if dev.Kind != topology.Router {
			continue
		}
		m := newMatrix(dev.Ports)
		for turn := range turns[dev.ID] {
			m[turn.In][turn.Out] = true
		}
		d.allowed[dev.ID] = m
	}
	return d
}

// Allowed reports whether the turn in -> out is enabled at router dev. End
// nodes have no disable logic; queries against them panic.
func (d *Disables) Allowed(dev topology.DeviceID, in, out int) bool {
	m, ok := d.allowed[dev]
	if !ok {
		panic(fmt.Sprintf("router: device %d has no disable matrix (not a router?)", dev))
	}
	return m[in][out]
}

// Row returns the permission row for one input port of a router: Row(dev,
// in)[out] == Allowed(dev, in, out). The slice aliases the live matrix, so
// later Enable/Disable calls remain visible through it — which is what lets
// the simulator hoist the map lookup out of its per-cycle hot path without
// caching stale permissions. Queries against non-routers panic, as Allowed
// does.
func (d *Disables) Row(dev topology.DeviceID, in int) []bool {
	m, ok := d.allowed[dev]
	if !ok {
		panic(fmt.Sprintf("router: device %d has no disable matrix (not a router?)", dev))
	}
	return m[in]
}

// Disable turns off a specific turn, modeling an operator-configured
// restriction (the unidirectional arrow disables of Figure 2).
func (d *Disables) Disable(dev topology.DeviceID, in, out int) {
	d.allowed[dev][in][out] = false
}

// Enable turns a specific turn on.
func (d *Disables) Enable(dev topology.DeviceID, in, out int) {
	d.allowed[dev][in][out] = true
}

// Counts reports the enabled and disabled turn totals across all routers
// (u-turns excluded from both).
func (d *Disables) Counts() (enabled, disabled int) {
	for _, m := range d.allowed {
		for in := range m {
			for out := range m[in] {
				if in == out {
					continue
				}
				if m[in][out] {
					enabled++
				} else {
					disabled++
				}
			}
		}
	}
	return enabled, disabled
}

func newMatrix(ports int) [][]bool {
	m := make([][]bool, ports)
	for i := range m {
		m[i] = make([]bool, ports)
	}
	return m
}
