package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// countOps is how many traced ops of each workload the exact counts sum
// over; every traced run makes at least this many, so the counts repeat
// exactly for a given seed.
const countOps = 2

// tracedOpOffset separates the op indices of traced ops from untraced
// ones. It is a multiple of simBatches, so a traced simulate op replays
// the batch of its untraced partner and their fingerprints must match,
// while a traced campaign op still submits a job of its own.
const tracedOpOffset = 1 << 20

// layerMetric is one per-layer metric of the traced run, computed from
// one workload's spans and counts.
type layerMetric struct {
	name, unit, workload string
	value                func(v traceView) float64
}

func selfOf(names ...string) func(traceView) float64 {
	return func(v traceView) float64 { return median(v.perOp(v.selfSeconds, names...)) }
}

func inclusiveOf(name string) func(traceView) float64 {
	return func(v traceView) float64 {
		return median(v.perOp(func(i int) float64 { return v.spans[i].dur().Seconds() }, name))
	}
}

func allocOf(names ...string) func(traceView) float64 {
	return func(v traceView) float64 {
		return median(v.perOp(func(i int) float64 { return float64(v.alloc[i]) / (1 << 20) }, names...))
	}
}

func exactOf(name string) func(traceView) float64 {
	return func(v traceView) float64 { return float64(v.exact(name)) }
}

// layerMetrics are the per-layer metrics, in report order. Times are the
// median over traced ops of the layer's self time in the op; set-up spans
// count as one op. serve.first_row_s and serve.last_row_s are the
// latencies from sending the rows request to the first and to the last
// row.
var layerMetrics = []layerMetric{
	{"fabricver.verify_s", "s", "fabric", selfOf("fabricver.verify")},
	{"fabricver.structural_s", "s", "fabric", selfOf("fabricver.structural")},
	{"fabricver.faults_tried", "count", "fabric", exactOf("fabricver.faults_tried")},
	{"metrics.bisection_s", "s", "fabric", selfOf("metrics.bisection")},
	{"metrics.bisection_alloc_mb", "MB", "fabric", allocOf("metrics.bisection")},
	{"contention.max_link_s", "s", "fabric", selfOf("contention.max_link")},
	{"deadlock.analyze_s", "s", "fabric", selfOf("deadlock.analyze")},
	{"metrics.hops_s", "s", "fabric", selfOf("metrics.hops")},
	{"core.parse_system_s", "s", "simulate", selfOf("core.parse_system")},
	{"topology.build_s", "s", "simulate", selfOf("topology.build")},
	{"routing.tables_s", "s", "simulate", selfOf("routing.tables")},
	{"router.from_tables_s", "s", "simulate", selfOf("router.from_tables")},
	{"sim.new_s", "s", "simulate", selfOf("sim.new")},
	{"sim.add_batch_s", "s", "simulate", selfOf("sim.add_batch")},
	{"sim.run_s", "s", "simulate", selfOf("sim.run")},
	{"sim.run_ns_per_flit_move", "ns", "simulate", func(v traceView) float64 {
		moves := v.countsPerOp("sim.flit_moves")
		return median(v.perOp(func(i int) float64 {
			return float64(v.self[i].Nanoseconds()) / moves[v.spans[i].Op]
		}, "sim.run"))
	}},
	{"sim.alloc_mb", "MB", "simulate", allocOf("sim.new", "sim.add_batch", "sim.run")},
	{"sim.cycles", "count", "simulate", exactOf("sim.cycles")},
	{"sim.flit_moves", "count", "simulate", exactOf("sim.flit_moves")},
	{"serve.submit_s", "s", "campaign", selfOf("serve.submit")},
	{"serve.first_row_s", "s", "campaign", inclusiveOf("serve.first_row")},
	{"serve.last_row_s", "s", "campaign", inclusiveOf("serve.last_row")},
	{"experiments.sweep_row_s", "s", "campaign", selfOf("experiments.sweep_row")},
	{"serve.points_computed", "count", "campaign", exactOf("serve.points_computed")},
	{"serve.cache_hits", "count", "campaign", exactOf("serve.cache_hits")},
	{"serve.cache_misses", "count", "campaign", exactOf("serve.cache_misses")},
}

// traceView answers per-op questions about one workload's traced run.
type traceView struct {
	spans  []span
	self   []time.Duration
	alloc  []uint64
	counts []count
}

func newView(t *tracer) traceView {
	return traceView{spans: t.spans, self: selfTimes(t.spans), alloc: selfAllocs(t.spans), counts: t.counts}
}

func (v traceView) selfSeconds(i int) float64 { return v.self[i].Seconds() }

// perOp sums f over the spans with the given names, per op, and returns
// the per-op sums.
func (v traceView) perOp(f func(i int) float64, names ...string) []float64 {
	sums := map[int]float64{}
	var ops []int
	for i, s := range v.spans {
		for _, n := range names {
			if s.Name == n {
				if _, ok := sums[s.Op]; !ok {
					ops = append(ops, s.Op)
				}
				sums[s.Op] += f(i)
			}
		}
	}
	out := make([]float64, len(ops))
	for k, op := range ops {
		out[k] = sums[op]
	}
	return out
}

func (v traceView) countsPerOp(name string) map[int]float64 {
	m := map[int]float64{}
	for _, c := range v.counts {
		if c.Name == name {
			m[c.Op] += float64(c.Value)
		}
	}
	return m
}

// exact sums a count over the first countOps traced ops.
func (v traceView) exact(name string) int64 {
	var n int64
	for _, c := range v.counts {
		if c.Name == name && c.Op >= 0 && c.Op < countOps {
			n += c.Value
		}
	}
	return n
}

// traceWorkload makes one workload's traced run: a traced set-up, one
// untraced warm-up op, then pairs of an untraced and a traced op until
// budget is spent and at least countOps pairs ran. It returns the
// untraced and traced op times.
func traceWorkload(w workload, tr *tracer, budget time.Duration, r *result, log io.Writer) (untraced, traced []float64, err error) {
	inst, err := w.setup(tr)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	runOp(inst, 0, nil, r, log)
	deadline := time.Now().Add(budget)
	for j := 0; j < countOps || time.Now().Before(deadline); j++ {
		if d, _, ok := runOp(inst, 1+j, nil, r, log); ok {
			untraced = append(untraced, d.Seconds())
		}
		tr.op = j
		if d, _, ok := runOp(inst, 1+j+tracedOpOffset, tr, r, log); ok {
			traced = append(traced, d.Seconds())
		}
		tr.op = setupOp
	}
	return untraced, traced, inst.close()
}

// tracedRun makes the traced run of every workload, each for a third of
// the measuring time, prints each one's per-layer table and tracing
// overhead, writes the spans under scratch, and reports every per-layer
// metric.
func tracedRun(name, root, scratch string, seed int64, secs float64, out io.Writer) (report, error) {
	if _, err := newWorkload(name, root, scratch, seed, io.Discard); err != nil {
		return report{}, err
	}
	path := filepath.Join(scratch, fmt.Sprintf("spans-seed%d.jsonl", seed))
	f, err := os.Create(path)
	if err != nil {
		return report{}, err
	}
	defer f.Close()
	rep := report{Metrics: map[string]metric{}}
	var r result
	budget := time.Duration(secs / float64(len(workloadNames)) * float64(time.Second))
	for _, wn := range workloadNames {
		w, err := newWorkload(wn, root, scratch, seed, out)
		if err != nil {
			return report{}, err
		}
		tr := newTracer()
		untraced, traced, err := traceWorkload(w, tr, budget, &r, out)
		if err != nil {
			return report{}, fmt.Errorf("%s: %w", wn, err)
		}
		v := newView(tr)
		writeTable(out, fmt.Sprintf("%s: per-layer self time, %d traced ops", wn, len(traced)), v)
		u, t := median(untraced), median(traced)
		fmt.Fprintf(out, "  tracing overhead: op p50 %.6f s traced - %.6f s untraced = %.6f s (%.1f%%)\n",
			t, u, t-u, 100*(t-u)/u)
		if err := writeSpans(f, wn, tr); err != nil {
			return report{}, err
		}
		for _, lm := range layerMetrics {
			if lm.workload == wn {
				rep.Metrics[lm.name] = metric{lm.value(v), lm.unit}
			}
		}
	}
	if err := f.Close(); err != nil {
		return report{}, err
	}
	fmt.Fprintf(out, "spans: %s\n", path)
	for _, lm := range layerMetrics {
		fmt.Fprintf(out, "  %-28s %16.6f %s\n", lm.name, rep.Metrics[lm.name].Value, lm.unit)
	}
	rep.Attempted, rep.Failed, rep.Correct = r.attempted, r.failed, r.failed == 0
	return rep, nil
}
