package contention

import (
	"sort"

	"repro/internal/routing"
	"repro/internal/topology"
)

// UtilizationProfile reports how uniform all-pairs traffic spreads over the
// inter-router channels: the route count per channel and summary statistics.
// §2 of the paper uses this notion to argue that "most arrangements of path
// disables give uneven link utilization under uniform load" on the
// hypercube.
type UtilizationProfile struct {
	PerChannel map[topology.ChannelID]int
	Min, Max   int
	Mean       float64
}

// Utilization counts, for every inter-router channel, how many of the
// all-pairs routes cross it.
func Utilization(t *routing.Tables) (UtilizationProfile, error) {
	p := UtilizationProfile{PerChannel: make(map[topology.ChannelID]int)}
	// Seed every inter-router channel with zero so unused links show up.
	for c := 0; c < t.Net.NumChannels(); c++ {
		ch := topology.ChannelID(c)
		if interRouter(t.Net, ch) {
			p.PerChannel[ch] = 0
		}
	}
	rs := t.Sweep()
	if err := rs.Err(); err != nil {
		return UtilizationProfile{}, err
	}
	n := t.Net.NumNodes()
	var path []topology.ChannelID
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			path = rs.AppendPath(path[:0], s, d)
			for _, ch := range path {
				if _, ok := p.PerChannel[ch]; ok {
					p.PerChannel[ch]++
				}
			}
		}
	}
	first := true
	total := 0
	for _, c := range p.PerChannel {
		if first || c < p.Min {
			p.Min = c
		}
		if first || c > p.Max {
			p.Max = c
		}
		first = false
		total += c
	}
	if len(p.PerChannel) > 0 {
		p.Mean = float64(total) / float64(len(p.PerChannel))
	}
	return p, nil
}

// ImbalanceRatio reports Max/Min utilization; channels with zero routes
// yield +Inf conceptually, reported as the Max count with ok=false.
func (p UtilizationProfile) ImbalanceRatio() (ratio float64, ok bool) {
	if p.Min == 0 {
		return float64(p.Max), false
	}
	return float64(p.Max) / float64(p.Min), true
}

// Histogram returns the sorted distinct utilization values with their
// channel counts, for reporting.
func (p UtilizationProfile) Histogram() (values []int, counts []int) {
	m := make(map[int]int)
	for _, c := range p.PerChannel {
		m[c]++
	}
	for v := range m {
		values = append(values, v)
	}
	sort.Ints(values)
	counts = make([]int, len(values))
	for i, v := range values {
		counts[i] = m[v]
	}
	return values, counts
}
