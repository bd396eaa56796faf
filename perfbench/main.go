// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three closed-loop workloads with a single caller — fabric
// (certification and Table 2 analysis of the 64-node systems), simulate
// (saturating batches on the 512-node fractahedron) and campaign (sweep
// jobs through an in-process campaign server over loopback HTTP) — checks
// every op's output, and prints the end-to-end metrics. With --trace 1
// it instead makes the traced run of all three workloads and prints the
// per-layer metrics. The last line of standard output is one JSON
// object; the exit code is 1 when any op failed its check.
//
//	bash perfbench/run.sh --workload fabric --seed 1 --seconds 40 --trace 0
//
// run.sh builds it and runs it from the repository root; elsewhere, give
// --root, since the fabric workload checks certificates against the
// committed goldens.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloadNames = []string{"fabric", "simulate", "campaign"}

// endToEnd are the metrics of an untraced run, the same for every
// workload. Times are host time; work_per_s counts the workload's own
// work unit.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"op_tail_s", "s"},
	{"work_per_s", "1/s"},
	{"max_rss_mb", "MB"},
}

// newWorkload builds the named workload's static inputs.
func newWorkload(name, root, scratch string, seed int64, log io.Writer) (workload, error) {
	switch name {
	case "fabric":
		return newFabric(root, seed)
	case "simulate":
		return &simulateWorkload{seed: seed, log: log}, nil
	case "campaign":
		return &campaignWorkload{seed: seed, scratch: scratch}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fabric, simulate or campaign)", name)
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fabric, simulate or campaign")
	seed := fs.Int64("seed", 1, "workload seed")
	secs := fs.Float64("seconds", 30, "measuring time of one run")
	trace := fs.Int("trace", 0, "1: make the traced run and report per-layer metrics")
	root := fs.String("root", ".", "repository root")
	scratch := fs.String("scratch", ".bench_build", "directory for temporary files and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *secs <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		*name, *seed, *secs, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	var rep report
	var err error
	if *trace == 1 {
		rep, err = tracedRun(*name, *root, *scratch, *seed, *secs, stdout)
	} else {
		rep, err = untracedRun(*name, *root, *scratch, *seed, *secs, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !rep.Correct {
		return 1
	}
	return 0
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runSettings sizes the repeated set-up: at least five fresh set-ups and
// at least four seconds of them, up to 256, so the sub-millisecond server
// start and the 10 ms builds are timed hundreds of times and the 0.3 s
// build about a dozen.
func runSettings(secs float64, log io.Writer) settings {
	return settings{seconds: secs, setupMin: 4 * time.Second, setupReps: 5, setupMaxReps: 256, log: log}
}

// untracedRun measures one workload and returns its end-to-end metrics.
func untracedRun(name, root, scratch string, seed int64, secs float64, out io.Writer) (report, error) {
	w, err := newWorkload(name, root, scratch, seed, out)
	if err != nil {
		return report{}, err
	}
	r, err := run(w, runSettings(secs, out))
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", name, err)
	}
	lat := seconds(r.lat)
	if len(lat) == 0 {
		return report{}, fmt.Errorf("%s: no op passed its check (%d failed)", name, r.failed)
	}
	var busy float64
	for _, v := range lat {
		busy += v
	}
	tailV, pct, ok := tail(lat)
	values := map[string]float64{
		"setup_s":    median(seconds(r.setup)),
		"op_p50_s":   median(lat),
		"op_tail_s":  tailV,
		"work_per_s": float64(r.units) / busy,
		"max_rss_mb": median(r.peakRSS),
	}
	fmt.Fprintf(out, "%s: %d set-ups, %d ops attempted (1 warm-up), %d failed; work unit: %s\n",
		name, len(r.setup), r.attempted, r.failed, w.unit())
	if !ok {
		fmt.Fprintf(out, "%s: only %d timed ops passed, so op_tail_s is their maximum\n", name, len(lat))
	}
	m := map[string]metric{}
	for _, e := range endToEnd {
		m[e.name] = metric{values[e.name], e.unit}
		fmt.Fprintf(out, "  %-11s %14.6f %s", e.name, values[e.name], e.unit)
		if e.name == "op_tail_s" {
			fmt.Fprintf(out, "  (p%d of %d samples)", pct, len(lat))
		}
		fmt.Fprintln(out)
	}
	return report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}
