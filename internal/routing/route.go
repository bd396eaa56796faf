// Package routing implements deterministic, destination-based routing for
// every topology in the repository, in the style of ServerNet: each router
// holds a table mapping destination node address to output port, and a
// packet's path is the walk those tables induce. All algorithms here are
// per-router functions of the destination only, which is exactly the class
// of algorithms ServerNet's table-lookup hardware can express, and it
// guarantees the fixed per-pair paths that §3.3 of the paper requires for
// in-order delivery.
package routing

import (
	"fmt"

	"repro/internal/topology"
)

// Route is the deterministic path of a packet from one end node to another.
type Route struct {
	Src, Dst int // node addresses
	// Channels are the unidirectional channels crossed, in order, including
	// the injection channel (node to first router) and the ejection channel
	// (last router to node).
	Channels []topology.ChannelID
	// Devices are the devices visited: src node, routers, dst node.
	Devices []topology.DeviceID
	// VCs holds the virtual channel used on each entry of Channels. It is
	// nil for single-VC routings (everything travels on VC 0).
	VCs []int
}

// VCAt returns the virtual channel used on hop i of the route (0 when the
// routing has no VC assignment).
func (r Route) VCAt(i int) int {
	if r.VCs == nil {
		return 0
	}
	return r.VCs[i]
}

// RouterHops reports the number of routers the route traverses — the
// paper's "router delays" metric.
func (r Route) RouterHops() int { return len(r.Devices) - 2 }

// Tables is a full set of per-router routing tables plus the network they
// route. Entry (router, dst) gives the output port a packet for node
// address dst must take; -1 marks table holes (which Verify rejects).
type Tables struct {
	Net       *topology.Network
	Algorithm string
	out       [][]int // indexed by DeviceID; nil rows for end nodes

	// Virtual-channel assignment (see vc.go); zero-valued for single-VC
	// routings.
	numVC int
	vc    VCFunc
}

// NextPortFunc computes the output port a router uses toward a destination
// node address. Algorithms are defined by such functions and compiled into
// Tables by Build.
type NextPortFunc func(router topology.DeviceID, dst int) int

// Build compiles a next-port function into concrete tables for every router
// of the network.
func Build(net *topology.Network, algorithm string, next NextPortFunc) *Tables {
	t := &Tables{Net: net, Algorithm: algorithm, out: make([][]int, net.NumDevices())}
	for _, d := range net.Devices() {
		if d.Kind != topology.Router {
			continue
		}
		row := make([]int, net.NumNodes())
		for dst := range row {
			row[dst] = next(d.ID, dst)
		}
		t.out[d.ID] = row
	}
	return t
}

// OutPort returns the table entry of a router for a destination address.
func (t *Tables) OutPort(router topology.DeviceID, dst int) int {
	if int(router) < 0 || int(router) >= len(t.out) || t.out[router] == nil {
		panic(fmt.Sprintf("routing: device %d has no table", router))
	}
	return t.out[router][dst]
}

// SetOutPort overrides one table entry. The fault-injection experiments use
// it to model the corrupted routing tables §2.4 of the paper defends
// against with path-disable logic.
func (t *Tables) SetOutPort(router topology.DeviceID, dst, port int) {
	t.out[router][dst] = port
}

// Route walks the tables from node address src to node address dst and
// returns the resulting path, taking every step through Next. It fails if a
// table entry is missing, out of range or unwired, if the walk enters an end
// node other than the destination, or if it exceeds the device count (a
// routing loop).
func (t *Tables) Route(src, dst int) (Route, error) {
	if src == dst {
		return Route{}, fmt.Errorf("routing: src == dst == %d", src)
	}
	r := Route{Src: src, Dst: dst}
	cur := t.Net.NodeByIndex(src)
	dstDev := t.Net.NodeByIndex(dst)
	for steps := 0; ; steps++ {
		if steps > t.Net.NumDevices() {
			return Route{}, fmt.Errorf("routing[%s]: loop routing %d -> %d (path %v)",
				t.Algorithm, src, dst, r.Devices)
		}
		r.Devices = append(r.Devices, cur)
		if cur == dstDev {
			return r, nil
		}
		// Only the source injects from an end node; any other end node on
		// the path was entered by mis-routing.
		if steps > 0 && t.Net.Device(cur).Kind != topology.Router {
			return Route{}, fmt.Errorf("routing[%s]: walked into end node %s while routing %d -> %d",
				t.Algorithm, t.Net.Device(cur).Name, src, dst)
		}
		ch, vc, err := t.Next(cur, dst)
		if err != nil {
			return Route{}, fmt.Errorf("routing[%s]: %d -> %d: %v", t.Algorithm, src, dst, err)
		}
		r.Channels = append(r.Channels, ch)
		if t.vc != nil {
			r.VCs = append(r.VCs, vc)
		}
		cur = t.Net.ChannelDst(ch).Device
	}
}

// Next performs a single step of the walk Route performs: the channel (and
// virtual channel) a packet at dev takes toward destination address dst.
// Destination-indexed routing makes the step a function of (dev, dst)
// alone — no source, no history — which is what lets Sweep memoize walks
// per destination instead of re-walking every source. End nodes inject on
// their only port; routers consult their table. Out-of-range ports are
// errors, not panics, so Next is safe on arbitrarily corrupted tables.
func (t *Tables) Next(dev topology.DeviceID, dst int) (topology.ChannelID, int, error) {
	port := 0
	d := t.Net.Device(dev)
	if d.Kind == topology.Router {
		port = t.OutPort(dev, dst)
		if port < 0 {
			return -1, 0, fmt.Errorf("no table entry at %s for destination %d", d.Name, dst)
		}
		if port >= d.Ports {
			return -1, 0, fmt.Errorf("%s routes out port %d but has only %d ports", d.Name, port, d.Ports)
		}
	}
	ch, ok := t.Net.ChannelFromPort(dev, port)
	if !ok {
		return -1, 0, fmt.Errorf("%s port %d unwired (destination %d)", d.Name, port, dst)
	}
	return ch, t.vcAt(dev, dst), nil
}

// Verify routes every ordered pair and reports the first failure in
// (dst, src) order, if any. It is the all-pairs reachability check builders
// and tests rely on.
func (t *Tables) Verify() error { return t.Sweep().Err() }

// Turn is a (input port, output port) pair at a router.
type Turn struct{ In, Out int }

// UsedTurns computes, for every router, the set of turns any route actually
// takes. Its complement is the path-disable configuration of §2.4: ServerNet
// routers can disable all unused turns so that even a corrupted routing
// table cannot re-introduce a dependency loop.
func (t *Tables) UsedTurns() (map[topology.DeviceID]map[Turn]bool, error) {
	rs := t.Sweep()
	if err := rs.Err(); err != nil {
		return nil, err
	}
	return rs.Turns(), nil
}
