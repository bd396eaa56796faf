package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/contention"
	"repro/internal/deadlock"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// corruptedTetra returns the level-1 fat fractahedron with one table entry
// of its first router pointing at port 99, past the router's six ports.
func corruptedTetra(t *testing.T) *System {
	t.Helper()
	sys, _, err := ParseSystem("fat-fract:levels=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range sys.Net.Devices() {
		if d.Kind == topology.Router {
			sys.Tables.SetOutPort(d.ID, 3, 99)
			return sys
		}
	}
	t.Fatal("no router")
	return nil
}

// analysisErrors runs every all-pairs analysis on the tables and returns
// their errors by name.
func analysisErrors(tb *routing.Tables) map[string]error {
	errs := map[string]error{}
	_, errs["deadlock.Analyze"] = deadlock.Analyze(tb)
	_, errs["deadlock.AnalyzeVC"] = deadlock.AnalyzeVC(tb)
	_, errs["metrics.Hops"] = metrics.Hops(tb)
	_, errs["metrics.Stretch"] = metrics.Stretch(tb)
	_, errs["contention.MaxLinkContention"] = contention.MaxLinkContention(tb)
	_, errs["contention.Utilization"] = contention.Utilization(tb)
	_, errs["router.FromTables"] = router.FromTables(tb)
	errs["routing.Verify"] = tb.Verify()
	return errs
}

// An out-of-range table port is an error for every analysis and for
// Route, not a panic.
func TestOutOfRangePortIsAnError(t *testing.T) {
	sys := corruptedTetra(t)
	for name, err := range analysisErrors(sys.Tables) {
		if err == nil {
			t.Errorf("%s accepted a table routing out of port 99", name)
		}
	}
	failed := false
	for s := 0; s < sys.Net.NumNodes(); s++ {
		if s == 3 {
			continue
		}
		if _, err := sys.Tables.Route(s, 3); err != nil {
			failed = true
			if !strings.HasPrefix(err.Error(), "routing[") || !strings.Contains(err.Error(), "port 99") {
				t.Errorf("Route error %q lacks the routing[<alg>] prefix or the bad port", err)
			}
		}
	}
	if !failed {
		t.Error("no route to node 3 crosses the corrupted entry")
	}
}

// The analyses' error text does not depend on GOMAXPROCS and names the
// first failing pair in (dst, src) order.
func TestAnalysisErrorIndependentOfWorkers(t *testing.T) {
	sys := corruptedTetra(t)
	first := ""
	n := sys.Net.NumNodes()
	for d := 0; d < n && first == ""; d++ {
		for s := 0; s < n; s++ {
			if _, err := sys.Tables.Route(s, d); s != d && err != nil {
				first = fmt.Sprintf(": %d -> %d: ", s, d)
				break
			}
		}
	}
	if first == "" {
		t.Fatal("corruption broke no route")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := analysisErrors(sys.Tables)
	runtime.GOMAXPROCS(4)
	four := analysisErrors(sys.Tables)
	for name, err := range one {
		if err == nil || four[name] == nil {
			t.Errorf("%s: missing error", name)
			continue
		}
		if err.Error() != four[name].Error() {
			t.Errorf("%s: error at GOMAXPROCS 1 %q, at 4 %q", name, err, four[name])
		}
		if !strings.Contains(err.Error(), first) {
			t.Errorf("%s: error %q does not name the first failing pair%s", name, err, first)
		}
	}
}

// The route set equals what per-pair Route walks rebuild, on every built-in
// system: each pair's channels and hops, the used turns, the (channel, VC)
// and physical dependency edges, and the hop histogram. Physical
// dependencies and used turns are equinumerous — the turn equivalence that
// makes §2.4's path disables exact.
func TestRouteSetMatchesRouteWalks(t *testing.T) {
	for _, spec := range BuiltinSpecs() {
		t.Run(spec, func(t *testing.T) {
			sys, _, err := ParseSystem(spec)
			if err != nil {
				t.Fatal(err)
			}
			tb, net := sys.Tables, sys.Net
			n, v := net.NumNodes(), tb.NumVC()
			if testing.Short() && n > 128 {
				t.Skip("large system in -short mode")
			}
			rs := tb.Sweep()
			if err := rs.Err(); err != nil {
				t.Fatal(err)
			}
			turns := map[topology.DeviceID]map[routing.Turn]bool{}
			for _, d := range net.Devices() {
				if d.Kind == topology.Router {
					turns[d.ID] = map[routing.Turn]bool{}
				}
			}
			vcDeps := map[[2]int]bool{}
			physDeps := map[[2]int]bool{}
			hist := map[int]int{}
			var path []topology.ChannelID
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if s == d {
						continue
					}
					r, err := tb.Route(s, d)
					if err != nil {
						t.Fatal(err)
					}
					if got := rs.Hops(s, d); got != r.RouterHops() {
						t.Fatalf("%d -> %d: route set %d hops, Route %d", s, d, got, r.RouterHops())
					}
					if path = rs.AppendPath(path[:0], s, d); !reflect.DeepEqual(path, r.Channels) {
						t.Fatalf("%d -> %d: route set path %v, Route %v", s, d, path, r.Channels)
					}
					hist[r.RouterHops()]++
					for i := 1; i < len(r.Channels); i++ {
						in, out := net.ChannelDst(r.Channels[i-1]), net.ChannelSrc(r.Channels[i])
						turns[in.Device][routing.Turn{In: in.Port, Out: out.Port}] = true
						vcDeps[[2]int{int(r.Channels[i-1])*v + r.VCAt(i-1), int(r.Channels[i])*v + r.VCAt(i)}] = true
						physDeps[[2]int{int(r.Channels[i-1]), int(r.Channels[i])}] = true
					}
				}
			}
			if got := rs.Turns(); !reflect.DeepEqual(got, turns) {
				t.Error("route set turns differ from the per-pair walks")
			}
			if got := edgeSet(t, deadlock.BuildCDGVC(rs)); !reflect.DeepEqual(got, vcDeps) {
				t.Errorf("(channel, VC) dependencies: route set %d, walks %d", len(got), len(vcDeps))
			}
			g := deadlock.BuildCDG(rs)
			if got := edgeSet(t, g); !reflect.DeepEqual(got, physDeps) {
				t.Errorf("physical dependencies: route set %d, walks %d", len(got), len(physDeps))
			}
			used := 0
			for _, m := range turns {
				used += len(m)
			}
			if g.M() != used {
				t.Errorf("%d physical dependencies, %d used turns", g.M(), used)
			}
			hs, err := metrics.Hops(tb)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hs.Histogram, hist) {
				t.Errorf("hop histogram %v, walks %v", hs.Histogram, hist)
			}
		})
	}
}

// edgeSet collects a dependency graph's edges, which must be inserted in
// strictly ascending order.
func edgeSet(t *testing.T, g *graph.Digraph) map[[2]int]bool {
	t.Helper()
	set := map[[2]int]bool{}
	for a := 0; a < g.N(); a++ {
		for i, b := range g.Out(a) {
			if i > 0 && b <= g.Out(a)[i-1] {
				t.Fatalf("successors of %d not strictly ascending: %v", a, g.Out(a))
			}
			set[[2]int{a, b}] = true
		}
	}
	return set
}
