package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
	traffic "repro/internal/workload"
)

// The benchmark runs from the repository root; its tests run one level
// below it.
const testRoot = ".."

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},    // overlaps span 1
		{ID: 3, Parent: 0, Start: 90, End: 120},   // runs past its parent
		{ID: 4, Parent: 2, Start: 25, End: 35},    // grandchild
		{ID: 5, Parent: -1, Start: 200, End: 210}, // second root, no children
	}
	got := selfTimes(spans)
	// Span 0: children cover [10,50] and [90,100], 50 of 100.
	// Span 2: its child covers 10 of 30.
	want := []time.Duration{50, 20, 20, 30, 10, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfAllocs(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, AllocStart: 100, AllocEnd: 1100},
		{ID: 1, Parent: 0, AllocStart: 200, AllocEnd: 500},
		{ID: 2, Parent: 0, AllocStart: 600, AllocEnd: 900},
		{ID: 3, Parent: 2, AllocStart: 650, AllocEnd: 700},
	}
	got := selfAllocs(spans)
	want := []uint64{400, 300, 250, 50}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfAllocs = %v, want %v", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.op = 3
	outer := tr.begin("outer")
	call(tr, "inner", func() int { return 0 })
	tr.end(outer)
	tr.add("n", 7)
	if len(tr.spans) != 2 || tr.spans[1].Parent != outer || tr.spans[0].Parent != -1 {
		t.Fatalf("spans %+v: want inner under outer", tr.spans)
	}
	for _, s := range tr.spans {
		if s.Op != 3 || s.End < s.Start {
			t.Fatalf("span %+v: want op 3 and end >= start", s)
		}
	}
	if v := newView(tr); v.exact("n") != 0 {
		t.Fatalf("op 3 is past the first %d ops, so its count must not be summed", countOps)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x"); id != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", id)
	}
	nilTracer.end(-1)
	nilTracer.add("x", 1)
}

func TestTail(t *testing.T) {
	v := make([]float64, 30)
	for i := range v {
		v[i] = float64(30 - i) // 30..1, unsorted
	}
	got, pct, ok := tail(v)
	if !ok || got != 20 || pct != 66 {
		t.Fatalf("tail of 1..30 = %v p%d ok=%v, want 20 p66 ok", got, pct, ok)
	}
	got, pct, ok = tail([]float64{3, 1, 2})
	if ok || got != 3 || pct != 100 {
		t.Fatalf("tail of three samples = %v p%d ok=%v, want the maximum and ok=false", got, pct, ok)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// failingInstance fails every op whose index is in fail.
type failingInstance struct {
	fail  map[int]bool
	calls map[int]int
}

func (f *failingInstance) op(i int, tr *tracer) (time.Duration, int64, error) {
	f.calls[i]++
	if f.fail[i] {
		return time.Millisecond, 0, errors.New("check failed")
	}
	return time.Millisecond, 5, nil
}

func (f *failingInstance) close() error { return nil }

type fakeWorkload struct{ inst *failingInstance }

func (w fakeWorkload) unit() string                       { return "units" }
func (w fakeWorkload) setup(tr *tracer) (instance, error) { return w.inst, nil }

func TestFailedOpCountedNotRetried(t *testing.T) {
	inst := &failingInstance{fail: map[int]bool{0: true, 4: true}, calls: map[int]int{}}
	r, err := run(fakeWorkload{inst}, settings{seconds: 1e-9, setupReps: 1, setupMaxReps: 1, log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up op 0 and timed ops 1..minTimedOps; ops 0 and 4 fail.
	if r.attempted != minTimedOps+1 || r.failed != 2 {
		t.Fatalf("attempted %d failed %d, want %d and 2", r.attempted, r.failed, minTimedOps+1)
	}
	if len(r.lat) != minTimedOps-1 || r.units != 5*int64(minTimedOps-1) {
		t.Fatalf("%d latencies and %d units, want only the passing timed ops", len(r.lat), r.units)
	}
	for i, n := range inst.calls {
		if n != 1 {
			t.Fatalf("op %d ran %d times; a failed op must not be retried", i, n)
		}
	}
}

func TestCorruptCertificateFails(t *testing.T) {
	w, err := newFabric(testRoot, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	var r result
	if _, _, ok := runOp(inst, 0, nil, &r, io.Discard); !ok {
		t.Fatalf("op on the committed goldens failed")
	}
	golden := w.systems[1].golden
	w.systems[1].golden = []byte(strings.Replace(string(golden), `"ok": true`, `"ok": false`, 1))
	if _, _, ok := runOp(inst, 1, nil, &r, io.Discard); ok {
		t.Fatalf("op passed against a corrupted certificate")
	}
	if r.attempted != 2 || r.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", r.attempted, r.failed)
	}
}

func TestCorruptRowFails(t *testing.T) {
	row := func(deadlocked bool) string {
		b, _ := json.Marshal(experiments.SweepPointRow{Spec: simSpec, Rate: 0.002, Delivered: 9, Deadlocked: deadlocked})
		return string(b) + "\n"
	}
	good := []byte(row(false) + row(false))
	if err := checkRows(good, good, 2); err != nil {
		t.Fatalf("good rows: %v", err)
	}
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)/2] ^= 1
	cases := map[string]struct {
		streamed, artifact []byte
		points             int
	}{
		"corrupted byte":   {corrupt, good, 2},
		"missing row":      {[]byte(row(false)), []byte(row(false)), 2},
		"deadlocked row":   {[]byte(row(false) + row(true)), []byte(row(false) + row(true)), 2},
		"empty stream":     {nil, nil, 1},
		"unparseable rows": {[]byte("{\n}\n"), []byte("{\n}\n"), 2},
	}
	for name, c := range cases {
		if err := checkRows(c.streamed, c.artifact, c.points); err == nil {
			t.Errorf("%s: checkRows passed", name)
		}
	}
}

func TestCheckSimFails(t *testing.T) {
	res := sim.Result{Injected: 4, Delivered: 4, Cycles: 10}
	if _, err := checkSim(res, 4); err != nil {
		t.Fatalf("good result: %v", err)
	}
	for name, bad := range map[string]sim.Result{
		"deadlocked":  {Injected: 4, Delivered: 3, Deadlocked: true},
		"undelivered": {Injected: 4, Delivered: 3},
		"dropped":     {Injected: 4, Delivered: 4, Dropped: 1},
	} {
		if _, err := checkSim(bad, 4); err == nil {
			t.Errorf("%s: checkSim passed", name)
		}
	}
}

func TestInputsRepeatPerSeed(t *testing.T) {
	a, b, c := &simulateWorkload{seed: 7}, &simulateWorkload{seed: 7}, &simulateWorkload{seed: 8}
	if !reflect.DeepEqual(a.batch(3, 512), b.batch(3, 512)) {
		t.Fatal("simulate batches differ for one seed")
	}
	if reflect.DeepEqual(a.batch(3, 512), c.batch(3, 512)) || reflect.DeepEqual(a.batch(3, 512), a.batch(4, 512)) {
		t.Fatal("simulate batches repeat across seeds or batches")
	}
	if !reflect.DeepEqual(a.batch(3, 512), a.batch(3+tracedOpOffset, 512)) {
		t.Fatal("a traced op must replay its untraced partner's batch")
	}
	cw, cw2 := &campaignWorkload{seed: 7}, &campaignWorkload{seed: 7}
	seeds := map[int64]bool{}
	for _, i := range []int{0, 1, 2, 3, 1 + tracedOpOffset, 2 + tracedOpOffset} {
		if !reflect.DeepEqual(cw.job(i), cw2.job(i)) {
			t.Fatalf("campaign job %d differs for one seed", i)
		}
		if err := cw.job(i).Validate(); err != nil {
			t.Fatalf("campaign job %d: %v", i, err)
		}
		seeds[cw.job(i).Seed] = true
	}
	if len(seeds) != 6 {
		t.Fatal("campaign jobs share a seed, so one would be served from the cache")
	}
	fw, fw2 := &fabricWorkload{seed: 7}, &fabricWorkload{seed: 7}
	if fw.analyzeOptions(5) != fw2.analyzeOptions(5) || fw.analyzeOptions(5) == fw.analyzeOptions(6) {
		t.Fatal("fabric analysis options must repeat per seed and differ per op")
	}
}

func TestTracedCallsMatchSystem(t *testing.T) {
	sys, _, err := core.ParseSystem("fat-fract:levels=2")
	if err != nil {
		t.Fatal(err)
	}
	opt := core.AnalyzeOptions{BisectionRestarts: 2, Seed: 9}
	want, err := sys.Analyze(opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := analyze(sys, opt, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("traced analysis differs from System.Analyze")
	}
	specs := traffic.UniformRandom(runner.RNG(1, 0), sys.Net.NumNodes(), 500, 8, 200)
	wantRes, err := sys.Simulate(specs, simConfig)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := simulate(sys, specs, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatal("traced simulation differs from System.Simulate")
	}
}

// TestTracedCountsRepeat makes two short traced runs with one seed and
// checks that every exact count agrees.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("makes two traced runs of every workload")
	}
	var reps [2]report
	for k := range reps {
		rep, err := tracedRun("fabric", testRoot, t.TempDir(), 5, 0.01, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Fatalf("traced run %d: %d of %d ops failed", k, rep.Failed, rep.Attempted)
		}
		reps[k] = rep
	}
	for _, lm := range layerMetrics {
		a, ok := reps[0].Metrics[lm.name]
		if !ok {
			t.Fatalf("traced run does not report %s", lm.name)
		}
		if lm.unit == "count" && a != reps[1].Metrics[lm.name] {
			t.Errorf("%s: %v then %v", lm.name, a.Value, reps[1].Metrics[lm.name].Value)
		}
	}
	if v := reps[0].Metrics["serve.cache_hits"].Value; v != 0 {
		t.Errorf("serve.cache_hits = %v, want 0", v)
	}
	if v := reps[0].Metrics["fabricver.faults_tried"].Value; v != countOps*(216+140) {
		t.Errorf("fabricver.faults_tried = %v, want %d", v, countOps*(216+140))
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names workloads the
// program runs and exactly the metrics it reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(testRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, testRoot, t.TempDir(), 1, io.Discard); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	var e2e, layers []m
	for _, e := range endToEnd {
		e2e = append(e2e, m{e.name, e.unit})
	}
	for _, lm := range layerMetrics {
		layers = append(layers, m{lm.name, lm.unit})
	}
	if !reflect.DeepEqual(spec.EndToEnd, e2e) {
		t.Errorf("end_to_end %v, want %v", spec.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("per_layer %v, want %v", spec.PerLayer, layers)
	}
}
