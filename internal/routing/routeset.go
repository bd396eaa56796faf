package routing

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// RouteSet is the result of routing every ordered node pair exactly once:
// the channel-dependency edges (over (channel, VC) vertices), the
// reachability tally with every failure, the worst router-hop count with
// its witness pair, and the per-destination next-hop forest the per-pair
// analyses walk. Pairs are visited in ascending (dst, src) order, so every
// field — including the order of the failures and the worst-pair witness —
// is deterministic.
type RouteSet struct {
	Tables *Tables

	Pairs   int // ordered node pairs swept
	Reached int // pairs the tables route end to end
	// MaxHops is the worst router-hop count among reached pairs, first
	// attained by WorstSrc -> WorstDst.
	MaxHops, WorstSrc, WorstDst int
	// Deps lists the channel dependencies of the reached routes: Deps[a]
	// holds, ascending and without repeats, every (channel, VC) vertex b
	// some route enters right after a. Vertex numbering is
	// channel*NumVC + vc.
	Deps [][]int
	// Failures lists every unreachable pair.
	Failures []PairFailure

	// The next-hop forest, flattened dst-major (entry dst*NumDevices +
	// device): the channel the device forwards on toward dst and its router
	// hops to dst, -1 where the route fails or ends. End-node entries hold
	// the node's route as a source.
	next []int32
	hops []int32
}

// PairFailure is one ordered node pair the tables fail to route.
type PairFailure struct {
	Src, Dst int
	Reason   string
}

// Sweep routes all ordered pairs through the tables. Route failures (holes,
// out-of-range or unwired ports, loops) are collected, not fatal, so the
// fault enumeration and fuzzed-table verification can count the damage;
// analyses that need a clean routing check Err.
//
// Destination-indexed routing means the step taken at a device depends on
// (device, destination) only, so the sweep walks each destination's
// in-tree once with memoization: a walk stops at the first device whose
// verdict toward the destination is already known and inherits it. That
// turns the all-pairs cost from O(N² · path) into O(N · routers).
func (t *Tables) Sweep() *RouteSet {
	net := t.Net
	v := t.NumVC()
	n := net.NumNodes()
	nd := net.NumDevices()
	rs := &RouteSet{
		Tables: t,
		Deps:   make([][]int, net.NumChannels()*v),
		next:   make([]int32, n*nd),
		hops:   make([]int32, n*nd),
	}

	// Per-destination scratch, invalidated by stamping (stamp == dst+1:
	// the device's forest entry toward dst is sealed) so no clearing pass
	// is needed.
	stamp := make([]int, nd)
	outV := make([]int, nd)                  // (channel, VC) vertex the device forwards on
	failDev := make([]topology.DeviceID, nd) // device originating the failure
	why := make([]string, nd)                // reason, set on the originating device
	srcCh := make([]int32, n)                // each source's injection channel, -1 on failure

	seen := make([]int, nd) // walk counter, for on-path loop detection
	walkID := 0
	path := make([]topology.DeviceID, 0, nd)

	// The forest rows of the destination being swept.
	var next, hops []int32

	// walk explores from router r until it reaches a sealed device, a
	// routing failure, or a loop, then seals the verdict onto every device
	// it visited. On success it also records the newly discovered
	// dependency edges — each device's out-channel enters the dependency
	// set exactly once per destination, in the walk that first reaches it.
	walk := func(r topology.DeviceID, dst, ds int) {
		walkID++
		path = path[:0]
		cur := r
		loopAt := -1
		for stamp[cur] != ds {
			if seen[cur] == walkID {
				for i, d := range path {
					if d == cur {
						loopAt = i
						break
					}
				}
				break
			}
			seen[cur] = walkID
			path = append(path, cur)
			dev := net.Device(cur)
			var sealWhy string
			if dev.Kind != topology.Router {
				// A walk only ever enters a node by mis-routing: the
				// destination node is pre-sealed and sources inject
				// outside walk.
				sealWhy = fmt.Sprintf("walk enters foreign end node %s", dev.Name)
			} else if ch, vc, err := t.Next(cur, dst); err != nil {
				sealWhy = err.Error()
			} else {
				next[cur] = int32(ch)
				outV[cur] = int(ch)*v + vc
				cur = net.ChannelDst(ch).Device
				continue
			}
			stamp[cur] = ds
			hops[cur] = -1
			failDev[cur] = cur
			why[cur] = sealWhy
			path = path[:len(path)-1]
			break
		}
		if loopAt >= 0 {
			// Every device from the loop entry onward fails at the loop.
			entry := path[loopAt]
			why[entry] = fmt.Sprintf("routing loop through %s", net.Device(entry).Name)
			for _, d := range path[loopAt:] {
				stamp[d] = ds
				hops[d] = -1
				failDev[d] = entry
			}
			cur = entry
			path = path[:loopAt]
		}
		// cur is now sealed; unwind the explored prefix against its verdict.
		h, ok, bfail := hops[cur], hops[cur] >= 0, failDev[cur]
		for i := len(path) - 1; i >= 0; i-- {
			d := path[i]
			stamp[d] = ds
			if !ok {
				hops[d] = -1
				failDev[d] = bfail
				continue
			}
			h++ // every unsealed path device on an OK walk is a router
			hops[d] = h
		}
		if !ok {
			return
		}
		// The newly sealed segment's dependencies: consecutive path
		// devices, plus the junction into the sealed base (whose own
		// downstream dependencies were recorded when it was first sealed).
		for i := 1; i < len(path); i++ {
			rs.dep(outV[path[i-1]], outV[path[i]])
		}
		if len(path) > 0 && net.Device(cur).Kind == topology.Router {
			rs.dep(outV[path[len(path)-1]], outV[cur])
		}
	}

	for dst := 0; dst < n; dst++ {
		ds := dst + 1
		next, hops = rs.next[dst*nd:(dst+1)*nd], rs.hops[dst*nd:(dst+1)*nd]
		dstDev := net.NodeByIndex(dst)
		stamp[dstDev] = ds
		next[dstDev], hops[dstDev] = -1, 0

		for s := 0; s < n; s++ {
			if s == dst {
				continue
			}
			rs.Pairs++
			srcCh[s] = -1
			// Injection: sources always take their single port.
			ch, _, err := t.Next(net.NodeByIndex(s), dst)
			if err != nil {
				rs.fail(s, dst, err.Error())
				continue
			}
			r0 := net.ChannelDst(ch).Device
			if stamp[r0] != ds {
				walk(r0, dst, ds)
			}
			if hops[r0] < 0 {
				rs.fail(s, dst, why[failDev[r0]])
				continue
			}
			srcCh[s] = int32(ch)
			rs.Reached++
			if h := int(hops[r0]); h > rs.MaxHops {
				rs.MaxHops, rs.WorstSrc, rs.WorstDst = h, s, dst
			}
			if r0 != dstDev {
				// Injection dependency (nodes inject on VC 0); the rest of
				// the path was recorded when the walk sealed it.
				rs.dep(int(ch)*v, outV[r0])
			}
		}
		// A node's verdict as a walk victim (mis-routed into) differs from
		// its verdict as a source, so sources are never memo-read during
		// the pass; their forest entries are written once it is over.
		for s := 0; s < n; s++ {
			if s == dst {
				continue
			}
			src := net.NodeByIndex(s)
			next[src], hops[src] = srcCh[s], -1
			if srcCh[s] >= 0 {
				hops[src] = hops[net.ChannelDst(topology.ChannelID(srcCh[s])).Device]
			}
		}
	}
	for _, succ := range rs.Deps {
		sort.Ints(succ)
	}
	return rs
}

// dep records the dependency a -> b between (channel, VC) vertices.
func (rs *RouteSet) dep(a, b int) {
	for _, x := range rs.Deps[a] {
		if x == b {
			return
		}
	}
	rs.Deps[a] = append(rs.Deps[a], b)
}

// fail records one unreachable ordered pair.
func (rs *RouteSet) fail(s, dst int, reason string) {
	rs.Failures = append(rs.Failures, PairFailure{Src: s, Dst: dst, Reason: reason})
}

// Err reports the first unreachable pair in (dst, src) order, or nil when
// every pair routes.
func (rs *RouteSet) Err() error {
	if len(rs.Failures) == 0 {
		return nil
	}
	f := rs.Failures[0]
	return fmt.Errorf("routing[%s]: %d -> %d: %s", rs.Tables.Algorithm, f.Src, f.Dst, f.Reason)
}

// Hops returns the router hops of the route from node address src to node
// address dst, or -1 when the tables fail to route the pair.
func (rs *RouteSet) Hops(src, dst int) int {
	net := rs.Tables.Net
	return int(rs.hops[dst*net.NumDevices()+int(net.NodeByIndex(src))])
}

// AppendPath appends the channels of the route from node address src to
// node address dst — injection and ejection channels included — to buf,
// walking the next-hop forest. It appends nothing when the pair fails.
func (rs *RouteSet) AppendPath(buf []topology.ChannelID, src, dst int) []topology.ChannelID {
	net := rs.Tables.Net
	nd := net.NumDevices()
	next := rs.next[dst*nd : (dst+1)*nd]
	if rs.Hops(src, dst) < 0 {
		return buf
	}
	for ch := next[net.NodeByIndex(src)]; ch >= 0; ch = next[net.ChannelDst(topology.ChannelID(ch)).Device] {
		buf = append(buf, topology.ChannelID(ch))
	}
	return buf
}

// Turns returns, for every router, the set of (in port, out port) turns the
// reached routes take. Every dependency joins two channels through one
// router, so the turns are exactly the dependencies projected onto
// physical channels: one turn per distinct physical dependency.
func (rs *RouteSet) Turns() map[topology.DeviceID]map[Turn]bool {
	net := rs.Tables.Net
	v := rs.Tables.NumVC()
	used := make(map[topology.DeviceID]map[Turn]bool)
	for _, d := range net.Devices() {
		if d.Kind == topology.Router {
			used[d.ID] = make(map[Turn]bool)
		}
	}
	for a, succ := range rs.Deps {
		in := net.ChannelDst(topology.ChannelID(a / v))
		for _, b := range succ {
			used[in.Device][Turn{In: in.Port, Out: net.ChannelSrc(topology.ChannelID(b / v)).Port}] = true
		}
	}
	return used
}
