package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark workload. Its static inputs are prepared when
// it is constructed; setup builds, fresh each time, what the first op
// needs.
type workload interface {
	// unit names the work an op completes, e.g. "flit moves".
	unit() string
	setup(tr *tracer) (instance, error)
}

// instance is one set-up workload, ready to run ops.
type instance interface {
	// op runs op i. Inputs are made from (seed, i) outside the timed part;
	// the returned duration covers only the measured calls. The op's
	// outputs are checked after the timed part, and a failed check is
	// returned as an error.
	op(i int, tr *tracer) (time.Duration, int64, error)
	close() error
}

// settings fixes how long a run sets up and measures.
type settings struct {
	seconds float64
	// setupMin is the least time spent repeating set-up; set-up repeats
	// at least setupReps times and at most setupMaxReps times.
	setupMin     time.Duration
	setupReps    int
	setupMaxReps int
	log          io.Writer
}

// result is one untraced run of one workload.
type result struct {
	attempted, failed int
	setup             []time.Duration
	lat               []time.Duration
	peakRSS           []float64 // MB, one per passing timed op
	units             int64
}

// measureSetup sets the workload up repeatedly, each time from scratch
// on a freshly collected heap, and returns the timings and the last
// instance, which the ops then use.
func measureSetup(w workload, s settings) ([]time.Duration, instance, error) {
	var times []time.Duration
	var total time.Duration
	for {
		runtime.GC()
		start := time.Now()
		inst, err := w.setup(nil)
		d := time.Since(start)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d)
		total += d
		if len(times) >= s.setupMaxReps || (len(times) >= s.setupReps && total >= s.setupMin) {
			return times, inst, nil
		}
		if err := inst.close(); err != nil {
			return nil, nil, fmt.Errorf("set-up: close: %w", err)
		}
	}
}

// runOp runs and checks op i, counting it as attempted in r. A failed op
// is logged and counted, never retried. It reports whether the op passed.
func runOp(inst instance, i int, tr *tracer, r *result, log io.Writer) (time.Duration, int64, bool) {
	r.attempted++
	d, units, err := inst.op(i, tr)
	if err != nil {
		r.failed++
		fmt.Fprintf(log, "op %d failed: %v\n", i, err)
		return 0, 0, false
	}
	return d, units, true
}

// minTimedOps is the fewest timed ops a run makes, so that op_tail_s
// always has ten samples beyond it.
const minTimedOps = 11

// run is one closed-loop run with one caller: set-up (repeated, median
// reported), one warm-up op that is checked but not timed, then ops
// back to back until the measuring time is spent.
func run(w workload, s settings) (result, error) {
	var r result
	setup, inst, err := measureSetup(w, s)
	if err != nil {
		return r, err
	}
	r.setup = setup
	runOp(inst, 0, nil, &r, s.log)
	deadline := time.Now().Add(time.Duration(s.seconds * float64(time.Second)))
	for i := 1; i <= minTimedOps || time.Now().Before(deadline); i++ {
		resetPeakRSS()
		if d, units, ok := runOp(inst, i, nil, &r, s.log); ok {
			r.lat = append(r.lat, d)
			r.peakRSS = append(r.peakRSS, peakRSSMB())
			r.units += units
		}
	}
	return r, inst.close()
}

func seconds(ds []time.Duration) []float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = d.Seconds()
	}
	return v
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile with at least ten samples above
// it: the (n-10)-th smallest of n samples and the percentile it stands
// at, 100*(n-10)/n rounded down. With fewer than eleven samples there is
// no such percentile; tail then returns the maximum and ok=false.
func tail(v []float64) (value float64, pct int, ok bool) {
	n := len(v)
	if n == 0 {
		return math.NaN(), 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n < 11 {
		return s[n-1], 100, false
	}
	k := n - 10 // 1-based rank of the sample
	return s[k-1], 100 * k / n, true
}

// resetPeakRSS resets the process's resident-memory high-water mark, so
// that peakRSSMB reads the peak since this call. Where the kernel does
// not allow it, the mark keeps counting from process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-memory high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
