// Package contention computes the paper's "maximum link contention" metric
// and uniform-load link utilization profiles.
//
// §3 of the paper measures a topology's tolerance of load imbalance by the
// worst case number of simultaneous transfers that can be forced to share
// one link: transfers have distinct sources and distinct destinations (a
// node sends or receives one transfer at a time), and each follows its
// fixed deterministic route. For a given unidirectional channel that is
// exactly a maximum bipartite matching problem over the (source,
// destination) pairs whose route crosses the channel, which this package
// solves exactly with Hopcroft–Karp. The paper's quoted ratios — 10:1 for
// the 6x6 mesh, 12:1 for the 4-2 fat tree, 4:1 for the fat fractahedron,
// (7-M):1 for fully-connected groups — are all reproduced by this
// computation.
package contention

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Transfer is one source-destination pair (node addresses).
type Transfer struct{ Src, Dst int }

// Result reports worst-case link contention.
type Result struct {
	// Max is the maximum over channels of the largest simultaneous
	// transfer set sharing that channel — the paper's contention ratio
	// numerator ("Max:1").
	Max int
	// WorstChannel is a channel achieving Max.
	WorstChannel topology.ChannelID
	// Witness is a concrete transfer set of size Max over WorstChannel,
	// with distinct sources and distinct destinations.
	Witness []Transfer
	// PerChannel maps every inter-router channel to its contention.
	PerChannel map[topology.ChannelID]int
}

// MaxLinkContention computes worst-case contention over all inter-router
// channels of the routed network. Injection and ejection channels are
// excluded: an injection channel carries a single source and an ejection
// channel a single destination, so their contention is 1 by definition.
func MaxLinkContention(t *routing.Tables) (Result, error) {
	return MaxLinkContentionFiltered(t, func(topology.ChannelID) bool { return true })
}

// MaxLinkContentionFiltered restricts the analysis to inter-router channels
// accepted by keep. The paper's §3.4 analysis of the fat fractahedron, for
// example, considers only the intra-ensemble links of the second level;
// experiments use the filter to reproduce that figure alongside the
// unrestricted metric.
func MaxLinkContentionFiltered(t *routing.Tables, keep func(topology.ChannelID) bool) (Result, error) {
	rs := t.Sweep()
	if err := rs.Err(); err != nil {
		return Result{}, err
	}
	// Walking sources in the outer loop lists each channel's transfers in
	// ascending (src, dst) order.
	perChannel := make(map[topology.ChannelID][]Transfer)
	n := t.Net.NumNodes()
	var path []topology.ChannelID
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			path = rs.AppendPath(path[:0], s, d)
			for _, ch := range path {
				if interRouter(t.Net, ch) && keep(ch) {
					perChannel[ch] = append(perChannel[ch], Transfer{s, d})
				}
			}
		}
	}
	return matchChannels(perChannel), nil
}

// matchChannels solves every channel's matching problem and reports the
// worst, visiting channels in ascending order for reproducible witnesses.
func matchChannels(perChannel map[topology.ChannelID][]Transfer) Result {
	res := Result{Max: 1, WorstChannel: -1, PerChannel: make(map[topology.ChannelID]int, len(perChannel))}
	channels := make([]topology.ChannelID, 0, len(perChannel))
	for ch := range perChannel {
		channels = append(channels, ch)
	}
	sort.Slice(channels, func(i, j int) bool { return channels[i] < channels[j] })
	for _, ch := range channels {
		size, witness := channelContention(perChannel[ch])
		res.PerChannel[ch] = size
		if size > res.Max || (size == res.Max && res.WorstChannel < 0) {
			res.Max = size
			res.WorstChannel = ch
			res.Witness = witness
		}
	}
	return res
}

// channelContention solves the matching problem for one channel's pairs.
func channelContention(pairs []Transfer) (int, []Transfer) {
	srcIdx := make(map[int]int)
	dstIdx := make(map[int]int)
	var srcs, dsts []int
	for _, p := range pairs {
		if _, ok := srcIdx[p.Src]; !ok {
			srcIdx[p.Src] = len(srcs)
			srcs = append(srcs, p.Src)
		}
		if _, ok := dstIdx[p.Dst]; !ok {
			dstIdx[p.Dst] = len(dsts)
			dsts = append(dsts, p.Dst)
		}
	}
	adj := make([][]int, len(srcs))
	for _, p := range pairs {
		adj[srcIdx[p.Src]] = append(adj[srcIdx[p.Src]], dstIdx[p.Dst])
	}
	size, matchL := graph.MaxBipartiteMatching(len(srcs), len(dsts), adj)
	witness := make([]Transfer, 0, size)
	for u, v := range matchL {
		if v >= 0 {
			witness = append(witness, Transfer{srcs[u], dsts[v]})
		}
	}
	sort.Slice(witness, func(i, j int) bool { return witness[i].Src < witness[j].Src })
	return size, witness
}

// MaxLinkContentionPairs runs the matching analysis restricted to an
// explicit set of ordered pairs (deduplicated), rather than all pairs —
// used by the dual-fabric load-sharing study, where each fabric carries
// only half the pair space.
func MaxLinkContentionPairs(t *routing.Tables, pairs []Transfer) (Result, error) {
	perChannel := make(map[topology.ChannelID][]Transfer)
	seen := make(map[Transfer]bool, len(pairs))
	for _, p := range pairs {
		if p.Src == p.Dst || seen[p] {
			continue
		}
		seen[p] = true
		r, err := t.Route(p.Src, p.Dst)
		if err != nil {
			return Result{}, err
		}
		for _, ch := range r.Channels {
			if !interRouter(t.Net, ch) {
				continue
			}
			perChannel[ch] = append(perChannel[ch], p)
		}
	}
	return matchChannels(perChannel), nil
}

// ContentionOfSet computes, for an explicit transfer set (e.g. the database
// query scenario of §3: k CPUs talking to k disk controllers), the maximum
// number of its transfers sharing any single channel. The set's sources and
// destinations need not be distinct; the count is over transfers as given.
func ContentionOfSet(t *routing.Tables, transfers []Transfer) (int, topology.ChannelID, error) {
	counts := make(map[topology.ChannelID]int)
	for _, tr := range transfers {
		r, err := t.Route(tr.Src, tr.Dst)
		if err != nil {
			return 0, -1, err
		}
		for _, ch := range r.Channels {
			counts[ch]++
		}
	}
	best, bestCh := 0, topology.ChannelID(-1)
	for ch, c := range counts {
		if c > best || (c == best && ch < bestCh) {
			best, bestCh = c, ch
		}
	}
	return best, bestCh, nil
}

func interRouter(net *topology.Network, ch topology.ChannelID) bool {
	return net.Device(net.ChannelSrc(ch).Device).Kind == topology.Router &&
		net.Device(net.ChannelDst(ch).Device).Kind == topology.Router
}

// String renders the result with its witness for command-line output.
func (r Result) String(net *topology.Network) string {
	if r.WorstChannel < 0 {
		return "max link contention 1:1 (no inter-router links)"
	}
	s := fmt.Sprintf("max link contention %d:1 on %s; witness transfers:", r.Max, net.ChannelString(r.WorstChannel))
	for _, w := range r.Witness {
		s += fmt.Sprintf(" %d->%d", w.Src, w.Dst)
	}
	return s
}
