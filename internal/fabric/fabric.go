// Package fabric models ServerNet's fault-tolerance story (§1 of the
// paper): full network fault tolerance comes from configuring PAIRS of
// router fabrics — an X fabric and a Y fabric of identical topology — with
// dual-ported nodes, so that any single link or router failure leaves every
// node pair connected through the other fabric. The package also quantifies
// §2's observation about non-reflexive routing: when the path from A to B
// differs from the path from B to A, a failure on the return path makes the
// forward path unusable too, because acknowledgments cannot flow back.
package fabric

import (
	"fmt"

	"repro/internal/contention"
	"repro/internal/routing"
	"repro/internal/topology"
)

// FabricID names one of the two fabrics.
type FabricID int

const (
	// X is the primary fabric.
	X FabricID = iota
	// Y is the standby fabric.
	Y
)

// String names the fabric for display.
func (f FabricID) String() string {
	if f == X {
		return "X"
	}
	return "Y"
}

// Dual is a pair of identically-built fabrics with their routing tables.
// Node address i refers to the same dual-ported node in both fabrics.
type Dual struct {
	Net    [2]*topology.Network
	Tables [2]*routing.Tables
}

// NewDual builds the two fabrics by calling build twice. The builder must
// be deterministic so the fabrics are identical in shape.
func NewDual(build func() (*topology.Network, *routing.Tables)) (*Dual, error) {
	d := &Dual{}
	for i := 0; i < 2; i++ {
		net, tb := build()
		if tb.Net != net {
			return nil, fmt.Errorf("fabric: tables do not belong to the built network")
		}
		d.Net[i] = net
		d.Tables[i] = tb
	}
	if d.Net[0].NumNodes() != d.Net[1].NumNodes() ||
		d.Net[0].NumLinks() != d.Net[1].NumLinks() {
		return nil, fmt.Errorf("fabric: X and Y fabrics differ in shape")
	}
	return d, nil
}

// Faults is a set of injected failures, per fabric.
type Faults struct {
	deadLinks   [2]map[topology.LinkID]bool
	deadRouters [2]map[topology.DeviceID]bool
}

// NewFaults returns an empty fault set.
func NewFaults() *Faults {
	f := &Faults{}
	for i := 0; i < 2; i++ {
		f.deadLinks[i] = make(map[topology.LinkID]bool)
		f.deadRouters[i] = make(map[topology.DeviceID]bool)
	}
	return f
}

// KillLink marks a link of one fabric failed.
func (f *Faults) KillLink(fab FabricID, l topology.LinkID) { f.deadLinks[fab][l] = true }

// KillRouter marks a router of one fabric failed.
func (f *Faults) KillRouter(fab FabricID, r topology.DeviceID) { f.deadRouters[fab][r] = true }

// Count reports the number of injected faults.
func (f *Faults) Count() int {
	n := 0
	for i := 0; i < 2; i++ {
		n += len(f.deadLinks[i]) + len(f.deadRouters[i])
	}
	return n
}

// RouteBroken reports whether a route crosses any failed element of the
// given fabric.
func (f *Faults) RouteBroken(fab FabricID, net *topology.Network, r routing.Route) bool {
	for _, ch := range r.Channels {
		if f.deadLinks[fab][net.ChannelLink(ch)] {
			return true
		}
	}
	for _, dev := range r.Devices {
		if f.deadRouters[fab][dev] {
			return true
		}
	}
	return false
}

// usable reports whether the pair (src,dst) can exchange data AND
// acknowledgments on one fabric: both the forward and the reverse route
// must survive. This is §2's constraint — "that path may be unusable due to
// the inability to send acknowledgments back".
func (d *Dual) usable(fab FabricID, faults *Faults, src, dst int) (bool, error) {
	fwd, err := d.Tables[fab].Route(src, dst)
	if err != nil {
		return false, err
	}
	rev, err := d.Tables[fab].Route(dst, src)
	if err != nil {
		return false, err
	}
	return !faults.RouteBroken(fab, d.Net[fab], fwd) &&
		!faults.RouteBroken(fab, d.Net[fab], rev), nil
}

// RouteWithFailover returns a working route for (src,dst): the X fabric's
// route if X is healthy for the pair (including its ack path), otherwise
// Y's. It fails only when both fabrics are broken for the pair.
func (d *Dual) RouteWithFailover(faults *Faults, src, dst int) (routing.Route, FabricID, error) {
	for _, fab := range []FabricID{X, Y} {
		ok, err := d.usable(fab, faults, src, dst)
		if err != nil {
			return routing.Route{}, fab, err
		}
		if ok {
			r, err := d.Tables[fab].Route(src, dst)
			return r, fab, err
		}
	}
	return routing.Route{}, X, fmt.Errorf("fabric: no surviving path %d -> %d on either fabric", src, dst)
}

// Survivability summarizes pair connectivity under a fault set.
type Survivability struct {
	Pairs   int // ordered pairs examined
	OnX     int // pairs served by the X fabric
	OnY     int // pairs that had to fail over to Y
	Severed int // pairs with no usable fabric
}

// Survey computes survivability over all ordered node pairs.
func (d *Dual) Survey(faults *Faults) (Survivability, error) {
	var s Survivability
	n := d.Net[0].NumNodes()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			s.Pairs++
			okX, err := d.usable(X, faults, a, b)
			if err != nil {
				return s, err
			}
			if okX {
				s.OnX++
				continue
			}
			okY, err := d.usable(Y, faults, a, b)
			if err != nil {
				return s, err
			}
			if okY {
				s.OnY++
			} else {
				s.Severed++
			}
		}
	}
	return s, nil
}

// AckImpact quantifies the non-reflexive routing penalty of §2 on a single
// fabric: among ordered pairs whose FORWARD route survives the faults, how
// many are nevertheless unusable because the REVERSE route is broken. For
// reflexive routings the answer is zero by construction (forward and
// reverse use the same links).
func AckImpact(t *routing.Tables, faults *Faults, fab FabricID) (fwdOK, unusable int, err error) {
	n := t.Net.NumNodes()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			fwd, err := t.Route(a, b)
			if err != nil {
				return 0, 0, err
			}
			if faults.RouteBroken(fab, t.Net, fwd) {
				continue
			}
			fwdOK++
			rev, err := t.Route(b, a)
			if err != nil {
				return 0, 0, err
			}
			if faults.RouteBroken(fab, t.Net, rev) {
				unusable++
			}
		}
	}
	return fwdOK, unusable, nil
}

// Balance is the static load-sharing rule some dual-fabric ServerNet
// configurations use when both fabrics are healthy: pairs with even
// src+dst ride X, odd pairs ride Y. It is deterministic per pair, so
// in-order delivery is preserved.
func Balance(src, dst int) FabricID {
	if (src+dst)%2 == 0 {
		return X
	}
	return Y
}

// SharedContention measures worst-case link contention when traffic is
// load-shared across both fabrics with Balance: each fabric sees only its
// half of the pair space, roughly halving the §3 contention figures while
// both fabrics are healthy (fault tolerance degrades to single-fabric
// contention, not to disconnection).
func (d *Dual) SharedContention() (int, error) {
	worst := 0
	n := d.Net[0].NumNodes()
	for _, fab := range []FabricID{X, Y} {
		var pairs []contention.Transfer
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b && Balance(a, b) == fab {
					pairs = append(pairs, contention.Transfer{Src: a, Dst: b})
				}
			}
		}
		res, err := contention.MaxLinkContentionPairs(d.Tables[fab], pairs)
		if err != nil {
			return 0, err
		}
		if res.Max > worst {
			worst = res.Max
		}
	}
	return worst, nil
}

// Reflexive reports whether a routing is reflexive: for every pair, the
// reverse route uses exactly the same links (in opposite direction).
func Reflexive(t *routing.Tables) (bool, error) {
	rs := t.Sweep()
	if err := rs.Err(); err != nil {
		return false, err
	}
	n := t.Net.NumNodes()
	var fwd, rev []topology.ChannelID
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			fwd, rev = rs.AppendPath(fwd[:0], a, b), rs.AppendPath(rev[:0], b, a)
			if len(fwd) != len(rev) {
				return false, nil
			}
			for i, ch := range fwd {
				if rev[len(rev)-1-i] != t.Net.Reverse(ch) {
					return false, nil
				}
			}
		}
	}
	return true, nil
}
