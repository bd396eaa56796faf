package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// Property: any fractahedron configuration (group 3..5, down 1..2, levels
// 1..2, thin or fat) routes all pairs, with simple paths, within the
// generalized delay bound (4N-2 thin, 3N-1 fat), and the max-delay bound is
// tight for some pair.
func TestFractahedronRoutingProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := topology.FractConfig{
			Group:  3 + rng.Intn(3),
			Down:   1 + rng.Intn(2),
			Levels: 1 + rng.Intn(2),
			Fat:    rng.Intn(2) == 0,
		}
		fr := topology.NewFractahedron(cfg)
		tb := Fractahedron(fr)
		bound := 4*cfg.Levels - 2
		if cfg.Fat {
			bound = 3*cfg.Levels - 1
		}
		if cfg.Levels == 1 {
			bound = 2
		}
		max := 0
		n := fr.NumNodes()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				r, err := tb.Route(s, d)
				if err != nil {
					t.Logf("cfg %+v: %v", cfg, err)
					return false
				}
				if !simplePath(r) {
					t.Logf("cfg %+v: route %d->%d revisits a device", cfg, s, d)
					return false
				}
				if r.RouterHops() > bound {
					t.Logf("cfg %+v: route %d->%d takes %d hops > bound %d", cfg, s, d, r.RouterHops(), bound)
					return false
				}
				if r.RouterHops() > max {
					max = r.RouterHops()
				}
			}
		}
		if n > 1 && max != bound {
			t.Logf("cfg %+v: max hops %d, bound %d not attained", cfg, max, bound)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: any D-U fat tree routes all pairs with simple paths of at most
// 2*Levels-1 hops, and trimmed instances (node counts that don't fill the
// tree) still work.
func TestFatTreeRoutingProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(3)
		u := 1 + rng.Intn(3)
		nodes := 2 + rng.Intn(60)
		ft := topology.NewFatTree(d, u, nodes)
		tb := FatTree(ft)
		bound := 2*ft.Levels - 1
		for s := 0; s < nodes; s++ {
			for dd := 0; dd < nodes; dd++ {
				if s == dd {
					continue
				}
				r, err := tb.Route(s, dd)
				if err != nil {
					t.Logf("d=%d u=%d n=%d: %v", d, u, nodes, err)
					return false
				}
				if !simplePath(r) || r.RouterHops() > bound {
					t.Logf("d=%d u=%d n=%d: bad route %d->%d (%d hops)", d, u, nodes, s, dd, r.RouterHops())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: generic up*/down* routes any random connected multi-router
// topology completely, with simple paths.
func TestUpDownGenericOnRandomTopologies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nr := 3 + rng.Intn(10)
		net := topology.New("random")
		routers := make([]topology.DeviceID, nr)
		for i := range routers {
			routers[i] = net.AddRouter("r", 8)
		}
		// Random spanning tree plus extra chords.
		for i := 1; i < nr; i++ {
			net.ConnectNext(routers[i], routers[rng.Intn(i)])
		}
		for k := 0; k < rng.Intn(nr); k++ {
			a, b := rng.Intn(nr), rng.Intn(nr)
			if a == b || net.UsedPorts(routers[a]) >= 6 || net.UsedPorts(routers[b]) >= 6 {
				continue
			}
			net.ConnectNext(routers[a], routers[b])
		}
		// One or two nodes per router, within port budget.
		for i := range routers {
			for j := 0; j < 1+rng.Intn(2) && net.UsedPorts(routers[i]) < 8; j++ {
				nd := net.AddNode("n")
				net.ConnectNext(routers[i], nd)
			}
		}
		if err := net.Validate(); err != nil {
			t.Logf("builder bug: %v", err)
			return false
		}
		tb := UpDownGeneric(net, routers[rng.Intn(nr)])
		n := net.NumNodes()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				r, err := tb.Route(s, d)
				if err != nil {
					t.Logf("%v", err)
					return false
				}
				if !simplePath(r) {
					t.Logf("route %d->%d revisits a device", s, d)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// simplePath reports whether a route visits no device twice.
func simplePath(r Route) bool {
	seen := make(map[topology.DeviceID]bool, len(r.Devices))
	for _, d := range r.Devices {
		if seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}
