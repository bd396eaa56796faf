package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"time"
)

// setupOp is the op id of spans recorded while a workload sets up.
const setupOp = -1

// span is one timed call from the benchmark into a layer of the program.
// Times are offsets from the tracer's epoch; Alloc* read the process-wide
// cumulative heap allocation counter at the span's start and end.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"` // -1 for a root span
	Op         int    `json:"op"`     // setupOp during set-up
	Name       string `json:"name"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	AllocStart uint64 `json:"alloc_start_bytes"`
	AllocEnd   uint64 `json:"alloc_end_bytes"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// count is an exact work count recorded at a layer boundary.
type count struct {
	Op    int    `json:"op"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// tracer keeps spans and counts in memory for the whole run; they are
// written out once, when the benchmark ends. A nil *tracer records
// nothing; untraced ops pass nil.
type tracer struct {
	epoch  time.Time
	op     int
	spans  []span
	counts []count
	open   []int // stack of open span ids
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		op:     setupOp,
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, AllocStart: t.allocBytes()})
	t.spans[id].Start = int64(time.Since(t.epoch))
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.spans[id].AllocEnd = t.allocBytes()
	t.open = t.open[:len(t.open)-1]
}

// add records an exact count for the current op.
func (t *tracer) add(name string, v int64) {
	if t == nil {
		return
	}
	t.counts = append(t.counts, count{Op: t.op, Name: name, Value: v})
}

// call runs f inside a span named name.
func call[T any](t *tracer, name string, f func() T) T {
	id := t.begin(name)
	v := f()
	t.end(id)
	return v
}

// call2 is call for functions that also return an error.
func call2[T any](t *tracer, name string, f func() (T, error)) (T, error) {
	id := t.begin(name)
	v, err := f()
	t.end(id)
	return v, err
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children are counted once, and
// child time outside the parent is ignored).
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfAllocs returns each span's allocated bytes minus its children's.
// With one caller the children run one after another, so the difference
// is exact.
func selfAllocs(spans []span) []uint64 {
	self := make([]uint64, len(spans))
	for i, s := range spans {
		self[i] = s.AllocEnd - s.AllocStart
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= min(self[s.Parent], s.AllocEnd-s.AllocStart)
		}
	}
	return self
}

// writeTable prints the per-layer table: for each span name, in order of
// first appearance, its calls, total self time, median self time per op
// and total self allocation.
func writeTable(w io.Writer, title string, v traceView) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-28s %7s %10s %14s %10s\n", "span", "calls", "self s", "self s/op p50", "alloc MB")
	var names []string
	calls := map[string]int{}
	self := map[string]time.Duration{}
	alloc := map[string]uint64{}
	for i, s := range v.spans {
		if calls[s.Name] == 0 {
			names = append(names, s.Name)
		}
		calls[s.Name]++
		self[s.Name] += v.self[i]
		alloc[s.Name] += v.alloc[i]
	}
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %7d %10.4f %14.6f %10.1f\n",
			n, calls[n], self[n].Seconds(), median(v.perOp(v.selfSeconds, n)), float64(alloc[n])/(1<<20))
	}
}

// writeSpans writes every span and count as JSON lines.
func writeSpans(w io.Writer, workload string, t *tracer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{workload, s}); err != nil {
			return err
		}
	}
	for _, c := range t.counts {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			count
		}{workload, c}); err != nil {
			return err
		}
	}
	return nil
}
