package fabricver

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/routing"
	"repro/internal/topology"
)

// failureLines renders a route set's unreachable pairs — the first
// maxDetail of them, in (dst, src) order — as "src -> dst: reason".
func failureLines(rs *routing.RouteSet) []string {
	var lines []string
	for _, f := range rs.Failures[:min(len(rs.Failures), maxDetail)] {
		lines = append(lines, fmt.Sprintf("%d -> %d: %s", f.Src, f.Dst, f.Reason))
	}
	return lines
}

// countTurns totals the per-router used-turn sets.
func countTurns(turns map[topology.DeviceID]map[routing.Turn]bool) int {
	n := 0
	for _, m := range turns {
		n += len(m)
	}
	return n
}

// cdgCheck proves deadlock freedom by CDG acyclicity. When the graph is
// cyclic the minimal dependency cycle is rendered channel by channel as
// the counterexample; when acyclic, the Dally–Seitz numbering's size is
// recorded as the certificate.
func cdgCheck(rs *routing.RouteSet, violate func(check, format string, args ...any)) CDGCheck {
	net, numVC := rs.Tables.Net, rs.Tables.NumVC()
	g := deadlock.BuildCDGVC(rs)
	cc := CDGCheck{Vertices: g.N(), Deps: g.M()}
	if cycle, cyclic := g.ShortestCycle(); cyclic {
		cc.MinimalCycle = make([]string, len(cycle))
		for i, vtx := range cycle {
			cc.MinimalCycle[i] = vcChannelString(net, vtx, numVC)
		}
		violate("cdg", "channel dependency graph has a cycle; minimal cycle (%d channels): %s",
			len(cycle), joinCycle(cc.MinimalCycle))
		return cc
	}
	cc.Acyclic = true
	order, ok := g.TopoSort()
	if !ok {
		// Unreachable: ShortestCycle and TopoSort agree on acyclicity.
		violate("cdg", "internal error: acyclic graph failed to topo-sort")
		return cc
	}
	cc.CertificateSize = len(order)
	return cc
}

// reachCheck turns the route set's tally into the endpoint-reachability
// verdict: every ordered pair routed, within the analytical hop bound.
func reachCheck(rs *routing.RouteSet, bound int, violate func(check, format string, args ...any)) ReachCheck {
	net := rs.Tables.Net
	failTotal := len(rs.Failures)
	rc := ReachCheck{
		Pattern:     "cpu-disk-all-pairs",
		Pairs:       rs.Pairs,
		Unreachable: failTotal,
		MaxHops:     rs.MaxHops,
	}
	if rs.MaxHops > 0 {
		rc.WorstPair = fmt.Sprintf("%s -> %s",
			net.Device(net.NodeByIndex(rs.WorstSrc)).Name,
			net.Device(net.NodeByIndex(rs.WorstDst)).Name)
	}
	for _, f := range failureLines(rs) {
		violate("reachability", "unreachable pair: %s", f)
	}
	if failTotal > maxDetail {
		violate("reachability", "unreachable pairs:%s", capNote(failTotal))
	}
	if rs.MaxHops > bound {
		violate("reachability", "route %s takes %d router hops, exceeding the analytical bound %d",
			rc.WorstPair, rs.MaxHops, bound)
	}
	rc.OK = failTotal == 0 && rs.MaxHops <= bound
	return rc
}

// disablesCheck verifies §2.4's enforcement property against the System's
// loaded path-disable registers: every turn the swept dependencies use
// must be enabled, and nothing beyond those turns may be enabled — the
// hardware permits exactly the analyzed dependency structure.
func disablesCheck(rs *routing.RouteSet, sys *core.System, violate func(check, format string, args ...any)) DisablesCheck {
	turns := rs.Turns()
	dc := DisablesCheck{UsedTurns: countTurns(turns)}
	enabled, _ := sys.Disables.Counts()
	dc.EnabledTurns = enabled

	net := sys.Net
	mismatches := 0
	// Deterministic order: devices ascending, then ports.
	for _, dev := range net.Devices() {
		if dev.Kind != topology.Router {
			continue
		}
		used := turns[dev.ID]
		for in := 0; in < dev.Ports; in++ {
			for out := 0; out < dev.Ports; out++ {
				if in == out {
					continue
				}
				u := used[routing.Turn{In: in, Out: out}]
				a := sys.Disables.Allowed(dev.ID, in, out)
				if u && !a {
					if mismatches < maxDetail {
						violate("disables", "turn %d->%d at %s is used by a route but disabled", in, out, dev.Name)
					}
					mismatches++
				}
				if !u && a {
					if mismatches < maxDetail {
						violate("disables", "turn %d->%d at %s is enabled but no route uses it (exceeds the minimal disable set)", in, out, dev.Name)
					}
					mismatches++
				}
			}
		}
	}
	if mismatches > maxDetail {
		violate("disables", "turn mismatches:%s", capNote(mismatches))
	}
	dc.OK = mismatches == 0
	return dc
}

// vcChannelString renders a (channel, VC) CDG vertex with device and port
// names; the VC suffix is omitted for single-VC routings.
func vcChannelString(net *topology.Network, vertex, numVC int) string {
	ch := topology.ChannelID(vertex / numVC)
	if numVC == 1 {
		return net.ChannelString(ch)
	}
	return fmt.Sprintf("%s vc%d", net.ChannelString(ch), vertex%numVC)
}

func joinCycle(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += " => "
		}
		out += l
	}
	return out + " => (back to start)"
}
