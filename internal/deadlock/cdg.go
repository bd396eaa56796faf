// Package deadlock analyzes routing algorithms for deadlock freedom using
// the channel dependency graph (CDG) method of Dally and Seitz, which the
// paper's §2 builds on: a wormhole-routed network is deadlock-free iff the
// directed graph whose vertices are unidirectional channels and whose edges
// join consecutively-used channels is acyclic.
//
// Because every routing algorithm in this repository is destination-based
// and table-driven, the CDG's edge set coincides exactly with the set of
// router turns the routes use (routing.RouteSet derives both from one
// sweep), which is what lets ServerNet's path-disable registers (§2.4)
// enforce the analyzed dependency structure in hardware even against
// corrupted routing tables.
package deadlock

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Report is the outcome of a CDG analysis.
type Report struct {
	Net       *topology.Network
	Algorithm string
	Free      bool                 // true iff the CDG is acyclic
	Cycle     []topology.ChannelID // a witness dependency cycle when !Free
	Channels  int                  // CDG vertices (all network channels)
	Deps      int                  // CDG edges (distinct channel dependencies)

	// Order is a Dally–Seitz certificate when Free: a numbering of channels
	// such that every dependency goes from a lower number to a higher one.
	Order []int
}

// BuildCDG returns the channel dependency graph of a route set: vertex i
// is channel i, and an edge c1 -> c2 means some route crosses c1
// immediately followed by c2. It is the projection of the (channel, VC)
// graph onto physical channels, with edges inserted in ascending (c1, c2)
// order so the graph — and any witness cycle extracted from it — is
// reproducible.
func BuildCDG(rs *routing.RouteSet) *graph.Digraph {
	v := rs.Tables.NumVC()
	g := graph.NewDigraph(rs.Tables.Net.NumChannels())
	for c := 0; c < g.N(); c++ {
		var succ []int
		for a := c * v; a < (c+1)*v; a++ {
			for _, b := range rs.Deps[a] {
				succ = append(succ, b/v)
			}
		}
		sort.Ints(succ)
		for i, c2 := range succ {
			if i == 0 || c2 != succ[i-1] {
				g.AddEdge(c, c2)
			}
		}
	}
	return g
}

// Analyze builds the CDG for a routing and reports whether it is
// deadlock-free, with either a witness cycle or a numbering certificate.
func Analyze(t *routing.Tables) (Report, error) {
	rs := t.Sweep()
	if err := rs.Err(); err != nil {
		return Report{}, err
	}
	g := BuildCDG(rs)
	rep := Report{
		Net:       t.Net,
		Algorithm: t.Algorithm,
		Channels:  g.N(),
		Deps:      g.M(),
	}
	if cyc, cyclic := g.FindCycle(); cyclic {
		rep.Cycle = make([]topology.ChannelID, len(cyc))
		for i, c := range cyc {
			rep.Cycle[i] = topology.ChannelID(c)
		}
		return rep, nil
	}
	rep.Free = true
	order, ok := g.TopoSort()
	if !ok {
		return Report{}, fmt.Errorf("deadlock: graph acyclic but unsortable (internal error)")
	}
	rep.Order = make([]int, g.N())
	for pos, c := range order {
		rep.Order[c] = pos
	}
	return rep, nil
}

// String renders the report for command-line output.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s on %s: %d channels, %d dependencies: ",
		r.Algorithm, r.Net.Name, r.Channels, r.Deps)
	if r.Free {
		sb.WriteString("DEADLOCK-FREE (acyclic CDG, numbering certificate available)")
		return sb.String()
	}
	fmt.Fprintf(&sb, "DEADLOCK POSSIBLE; dependency cycle of length %d:\n", len(r.Cycle))
	for _, c := range r.Cycle {
		fmt.Fprintf(&sb, "  %s\n", r.Net.ChannelString(c))
	}
	return strings.TrimRight(sb.String(), "\n")
}
